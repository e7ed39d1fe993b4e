package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/model"
	"transched/internal/simulate"
)

// TestSweepsMatchFreshRuns pins the plan-sharing sweeps to one fresh
// run per cell and heuristic, bit for bit, at workers 1, 2 and 0 (every
// core): RunSweep whole and in batches against RunBatches on a copy of
// the trace at the cell's capacity, and RunRobustSweep against planning
// on the perturbed copy and replaying the plan's order on the true one.
func TestSweepsMatchFreshRuns(t *testing.T) {
	const sigma, seed = 0.3, 5
	cfg := testConfig()
	cfg.Processes = 3
	for _, app := range []string{"HF", "CCSD"} {
		traces, err := GenerateTraces(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mults := cfg.multipliers()
		fresh := func(batch int, robust bool) [][][]float64 {
			out := make([][][]float64, len(heuristics.Names()))
			for h, name := range heuristics.Names() {
				out[h] = make([][]float64, len(mults))
				for m, mult := range mults {
					for ti, tr := range traces {
						capacity := tr.MinCapacity() * mult
						heur, err := heuristics.ByName(name, capacity)
						if err != nil {
							t.Fatal(err)
						}
						var s *core.Schedule
						if robust {
							planIn := core.NewInstance(model.PerturbTasks(tr.Tasks, sigma, seed+int64(ti)), capacity)
							planned, err := heur.Run(planIn)
							if err != nil {
								t.Fatal(err)
							}
							pos := map[string]int{}
							for i, task := range tr.Tasks {
								pos[task.Name] = i
							}
							var perm []int
							for _, a := range planned.Assignments {
								perm = append(perm, pos[a.Task.Name])
							}
							s, err = simulate.Run(tr.Instance(capacity), simulate.Policy{
								Order: func([]core.Task) []int { return perm },
							})
						} else {
							s, err = heur.RunBatches(tr.Instance(capacity), batch)
						}
						if err != nil {
							t.Fatal(err)
						}
						out[h][m] = append(out[h][m], s.Makespan()/flowshop.OMIM(tr.Tasks))
					}
				}
			}
			return out
		}
		same := func(label string, got, want [][][]float64) {
			t.Helper()
			for h := range want {
				for m := range want[h] {
					for ti := range want[h][m] {
						if g, w := got[h][m][ti], want[h][m][ti]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s %s: %s at %g mc on trace %d: ratio %v, fresh run %v",
								app, label, heuristics.Names()[h], mults[m], ti, g, w)
						}
					}
				}
			}
		}
		for _, batch := range []int{0, 20} {
			want := fresh(batch, false)
			for _, workers := range []int{1, 2, 0} {
				sw, err := RunSweep(app, traces, mults, SweepOptions{BatchSize: batch, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("RunSweep batch %d workers %d", batch, workers), sw.Ratios, want)
			}
		}
		want := fresh(0, true)
		for _, workers := range []int{1, 2, 0} {
			sw, err := RunRobustSweep(app, traces, mults, sigma, seed, SweepOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("RunRobustSweep workers %d", workers), sw.Ratios, want)
		}
	}
}

// TestRunSweepDeterminism: a parallel sweep is bit-identical to the
// serial reference — reflect.DeepEqual on the Sweep and byte-identical
// rendered output — on the QuickConfig workload.
func TestRunSweepDeterminism(t *testing.T) {
	cfg := QuickConfig()
	traces, err := GenerateTraces("HF", cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunSweep("HF", traces, cfg.multipliers(), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep("HF", traces, cfg.multipliers(), SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel sweep differs from serial sweep")
	}
	var a, b strings.Builder
	if err := serial.Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Render(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("rendered output differs between worker counts")
	}
}

// TestComputeCharacteristicsDeterminism: the Fig 8 fan-out is also
// bit-identical to its serial path.
func TestComputeCharacteristicsDeterminism(t *testing.T) {
	cfg := testConfig()
	traces, err := GenerateTraces("CCSD", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(
		ComputeCharacteristics("CCSD", traces, 1),
		ComputeCharacteristics("CCSD", traces, 4),
	) {
		t.Fatal("parallel characteristics differ from serial")
	}
}

// TestRunSweepUnknownHeuristicFailsFast: an unknown acronym is rejected
// during option resolution, before any trace is scheduled.
func TestRunSweepUnknownHeuristicFailsFast(t *testing.T) {
	cfg := testConfig()
	cfg.Processes = 1
	traces, err := GenerateTraces("HF", cfg)
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	_, err = RunSweep("HF", traces, cfg.multipliers(), SweepOptions{
		Heuristics: []string{"OS", "NOPE"},
	})
	if err == nil || !strings.Contains(err.Error(), `unknown heuristic "NOPE"`) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Errorf("unknown name took %v to fail", elapsed)
	}
}

// TestRunSweepHeuristicSubset: a selected subset sweeps only those
// heuristics, with categories resolved in the pre-pass.
func TestRunSweepHeuristicSubset(t *testing.T) {
	cfg := testConfig()
	cfg.Processes = 2
	traces, err := GenerateTraces("HF", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RunSweep("HF", traces, []float64{1.5}, SweepOptions{
		Heuristics: []string{"OS", "OOLCMR"}, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Heuristics) != 2 || sw.Heuristics[1] != "OOLCMR" {
		t.Fatalf("heuristics = %v", sw.Heuristics)
	}
	if got := sw.Categories[1].String(); got != "static+dynamic" {
		t.Errorf("OOLCMR category = %s", got)
	}
	if len(sw.Ratios[0][0]) != len(traces) {
		t.Errorf("%d samples, want %d", len(sw.Ratios[0][0]), len(traces))
	}
}

// TestRunSweepErrorPropagation: a failing cell (capacity below mc, so
// the largest task can never fit) surfaces its error from inside the
// worker pool instead of hanging or panicking, at both worker counts.
func TestRunSweepErrorPropagation(t *testing.T) {
	cfg := testConfig()
	cfg.Processes = 3
	traces, err := GenerateTraces("HF", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		_, err := RunSweep("HF", traces, []float64{0.5}, SweepOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error at half the minimum capacity", workers)
		}
		if !strings.Contains(err.Error(), "experiments:") {
			t.Errorf("workers=%d: unwrapped error %v", workers, err)
		}
	}
}
