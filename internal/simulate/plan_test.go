package simulate_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/heuristics"
	"transched/internal/simulate"
	"transched/internal/trace"
)

// paperTraces returns the first n paper-seed traces of app (300–800
// tasks each).
func paperTraces(t *testing.T, app string, n int) []*trace.Trace {
	t.Helper()
	trs, err := chem.Generate(app, cluster.Cascade(), chem.Config{Seed: 20190415, Processes: n})
	if err != nil {
		t.Fatal(err)
	}
	return trs
}

// sameSchedule reports the first difference between two schedules, bit
// for bit, or "" when they are identical.
func sameSchedule(got, want *core.Schedule) string {
	if math.Float64bits(got.Capacity) != math.Float64bits(want.Capacity) {
		return fmt.Sprintf("capacity %v, want %v", got.Capacity, want.Capacity)
	}
	if len(got.Assignments) != len(want.Assignments) {
		return fmt.Sprintf("%d assignments, want %d", len(got.Assignments), len(want.Assignments))
	}
	for i, g := range got.Assignments {
		w := want.Assignments[i]
		if g.Task != w.Task ||
			math.Float64bits(g.CommStart) != math.Float64bits(w.CommStart) ||
			math.Float64bits(g.CompStart) != math.Float64bits(w.CompStart) {
			return fmt.Sprintf("assignment %d: %+v, want %+v", i, g, w)
		}
	}
	return ""
}

var paperMultipliers = []float64{1, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875, 2}

// TestPlanMatchesFreshRuns runs one plan per heuristic and batch mode at
// the nine paper capacities, in a shuffled order and concurrently from
// several goroutines, and requires every schedule to be bit-identical to
// a fresh RunBatches call at that capacity.
func TestPlanMatchesFreshRuns(t *testing.T) {
	perApp := 2
	if testing.Short() {
		perApp = 1
	}
	const goroutines = 4
	rng := rand.New(rand.NewSource(24))
	for _, app := range []string{"HF", "CCSD"} {
		for _, tr := range paperTraces(t, app, perApp) {
			mc := tr.MinCapacity()
			for _, h := range heuristics.All(mc) {
				for _, batch := range []int{0, 100} {
					label := fmt.Sprintf("%s/%d %s batch %d", tr.App, tr.Process, h.Name, batch)
					want := make([]*core.Schedule, len(paperMultipliers))
					for m, mult := range paperMultipliers {
						s, err := simulate.RunBatches(tr.Instance(mc*mult), batch, h.Policy)
						if err != nil {
							t.Fatalf("%s at %g mc: %v", label, mult, err)
						}
						want[m] = s
					}
					plan := simulate.NewPlan(tr.Tasks, batch, h.Policy)
					got := make([][]*core.Schedule, goroutines)
					orders := make([][]int, goroutines)
					for g := range orders {
						orders[g] = rng.Perm(len(paperMultipliers))
						got[g] = make([]*core.Schedule, len(paperMultipliers))
					}
					errs := make([]error, goroutines)
					var wg sync.WaitGroup
					for g := 0; g < goroutines; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for _, m := range orders[g] {
								s, err := plan.Run(mc * paperMultipliers[m])
								if err != nil {
									errs[g] = err
									return
								}
								got[g][m] = s
							}
						}(g)
					}
					wg.Wait()
					for g := range got {
						if errs[g] != nil {
							t.Fatalf("%s: goroutine %d: %v", label, g, errs[g])
						}
						for m := range paperMultipliers {
							if diff := sameSchedule(got[g][m], want[m]); diff != "" {
								t.Fatalf("%s at %g mc (goroutine %d): %s", label, paperMultipliers[m], g, diff)
							}
						}
					}
				}
			}
		}
	}
}

// TestPlanComputesCapacityOrderPerRun: BP's First-Fit bins depend on the
// capacity, so one plan run at two capacities whose bins differ must
// follow each capacity's own order, not a cached one.
func TestPlanComputesCapacityOrderPerRun(t *testing.T) {
	tr := paperTraces(t, "HF", 1)[0]
	mc := tr.MinCapacity()
	bp, err := heuristics.ByName("BP", mc)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := mc, 2*mc
	loOrder, hiOrder := heuristics.BinPackingOrder(tr.Tasks, lo), heuristics.BinPackingOrder(tr.Tasks, hi)
	if slices.Equal(loOrder, hiOrder) {
		t.Fatal("First-Fit bins are the same at 1 and 2 mc; the test needs capacities where they differ")
	}
	plan := simulate.NewPlan(tr.Tasks, 0, bp.Policy)
	for _, c := range []struct {
		capacity float64
		order    []int
	}{{lo, loOrder}, {hi, hiOrder}, {lo, loOrder}} {
		got, err := plan.Run(c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simulate.Static(tr.Instance(c.capacity), c.order)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameSchedule(got, want); diff != "" {
			t.Fatalf("BP plan at %g: %s", c.capacity, diff)
		}
	}
}

// TestPlanReportsErrorsLikeRunBatches: a plan reports a task that does
// not fit, an invalid task and a malformed policy with RunBatches' errors
// and precedence, at every run.
func TestPlanReportsErrorsLikeRunBatches(t *testing.T) {
	ok := []core.Task{{Name: "a", Comm: 1, Comp: 1, Mem: 1}, {Name: "b", Comm: 2, Comp: 1, Mem: 3}}
	bad := append([]core.Task{{Name: "n", Comm: math.NaN(), Comp: 1, Mem: 1}}, ok...)
	for _, c := range []struct {
		tasks    []core.Task
		policy   simulate.Policy
		capacity float64
	}{
		{ok, simulate.Policy{Crit: simulate.LargestComm}, 2},
		{ok, simulate.Policy{}, 5},
		{ok, simulate.Policy{}, 2},
		{bad, simulate.Policy{}, 5},
		{ok, simulate.Policy{Order: func([]core.Task) []int { return []int{0} }}, 5},
		{ok, simulate.Policy{
			Order:         func(ts []core.Task) []int { return []int{0, 1} },
			CapacityOrder: func(ts []core.Task, _ float64) []int { return []int{0, 1} },
		}, 5},
		{nil, simulate.Policy{}, 5},
	} {
		_, want := simulate.RunBatches(core.NewInstance(c.tasks, c.capacity), 0, c.policy)
		plan := simulate.NewPlan(c.tasks, 0, c.policy)
		for run := 0; run < 2; run++ {
			_, got := plan.Run(c.capacity)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tasks %v policy %+v: plan error %v, RunBatches error %v", c.tasks, c.policy, got, want)
			}
		}
	}
}

// TestPickPathCounts: every dynamic-selection round ends on exactly one
// counted path, in pure dynamic and corrected mode, with and without the
// idle filter, and with NaN keys (no indexed pick). Paper traces are
// co-monotone, so with real keys the scan is all but gone.
func TestPickPathCounts(t *testing.T) {
	tr := paperTraces(t, "CCSD", 1)[0]
	nanKey := func(t core.Task) float64 {
		if t.Comm > t.Comp {
			return math.NaN()
		}
		return t.Comm
	}
	for _, h := range heuristics.All(1) {
		policies := []simulate.Policy{h.Policy}
		if h.Policy.Crit != nil {
			noIdle, nan := h.Policy, h.Policy
			noIdle.NoIdleFilter = true
			nan.Crit = nanKey
			policies = append(policies, noIdle, nan)
		}
		for pi, p := range policies {
			for _, mult := range []float64{1, 1.5, 2} {
				capacity := mult * tr.MinCapacity()
				e := simulate.NewExecutor(capacity)
				for lo := 0; lo < len(tr.Tasks); lo += 100 {
					if err := e.RunBatch(p, tr.Tasks[lo:min(lo+100, len(tr.Tasks))]); err != nil {
						t.Fatal(err)
					}
				}
				st := e.Stats()
				label := fmt.Sprintf("%s policy %d at %g mc: %+v", h.Name, pi, mult, st)
				if paths := st.PickStalls + st.PickIndexed + st.PickFast + st.PickFull; paths != st.Picks {
					t.Fatalf("%s: paths sum to %d", label, paths)
				}
				switch {
				case p.Crit == nil:
					if st.Picks != 0 || st.Scanned != 0 {
						t.Fatalf("%s: a static policy picked", label)
					}
				case p.Order == nil:
					// Pure dynamic: every round places a task or stalls.
					if st.Picks != st.Placed+st.MemStalls || st.PickStalls != st.MemStalls {
						t.Fatalf("%s: picks do not match placements plus stalls", label)
					}
				}
				if st.Scanned > st.Picks*100 {
					t.Fatalf("%s: scanned more than a batch per pick", label)
				}
				switch {
				case pi == 2:
					if st.PickIndexed != 0 {
						t.Fatalf("%s: indexed picks with NaN keys", label)
					}
				case p.Crit != nil:
					if st.PickIndexed == 0 || st.PickFull*100 > st.Picks {
						t.Fatalf("%s: the scan ran on more than 1%% of picks", label)
					}
				}
				want, err := simulate.RunBatches(tr.Instance(capacity), 100, p)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameSchedule(e.Schedule(), want); diff != "" {
					t.Fatalf("%s: executor schedule differs from RunBatches: %s", label, diff)
				}
			}
		}
	}
}

// TestOneShotDynamicAllocs: a one-shot dynamic run on a paper trace,
// whole or in batches, allocates the schedule and its assignments and
// nothing else; the plan and the selector, the indexed pick's tree
// included, come from the pools. The garbage collector is held off so
// the pools keep what the warm-up run left in them.
func TestOneShotDynamicAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, app := range []string{"HF", "CCSD"} {
		tr := paperTraces(t, app, 1)[0]
		in := tr.Instance(1.5 * tr.MinCapacity())
		for _, batch := range []int{0, 100} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := simulate.RunBatches(in, batch, simulate.Policy{Crit: simulate.LargestComm}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("%s in batches of %d: %g allocations per run, want at most 2", app, batch, allocs)
			}
		}
	}
}
