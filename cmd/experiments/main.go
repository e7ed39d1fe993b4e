// Command experiments regenerates the paper's tables and figures (§5–6)
// as text tables and ASCII boxplots.
//
// Usage:
//
//	experiments -fig all                 # everything, reduced scale
//	experiments -fig 9 -full             # Fig 9 at full paper scale
//	experiments -fig 7 -tasks 80         # MILP comparison, 80-task trace
//	experiments -fig table6
//	experiments -fig 9 -workers 1        # serial reference (same output)
//	experiments -robustness              # ranking stability under noise
//
// -robustness replaces the figure selection with the robustness study
// (EXPERIMENTS.md §Robustness sweep): it fits duration models to the
// annotated workloads (internal/model), calibrates a misprediction
// noise level from the fit residuals, reruns the 14-heuristic sweep at
// increasing noise, and prints a ranking-stability table; the
// zero-noise block is byte-identical to the standard sweep.
//
// The sweep drivers fan out across all cores by default; -workers caps
// the pool and -workers 1 reproduces the serial path. Results are
// bit-identical at every worker count.
//
// Observability (see OBSERVABILITY.md): -trace-out writes a Chrome
// trace-event JSON file of the sweep execution — one span per
// (trace, multiplier) cell on its worker's track, loadable in Perfetto
// or chrome://tracing — and -debug-addr serves /metrics, expvar and
// pprof while the run is in flight. -cpuprofile/-memprofile write
// offline pprof profiles of the whole run. None of these perturb
// results: output stays bit-identical with instrumentation on or off.
//
// Reduced scale (default) uses 12 processes of 60-120 tasks so the whole
// suite completes in seconds; -full switches to the paper's 150 processes
// of 300-800 tasks.
package main

import (
	"flag"
	"fmt"
	"os"

	"transched/internal/experiments"
	"transched/internal/obs"
	"transched/internal/prof"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "which artifact: 7, 8, 9, 10, 11, 12, 13, table6, ablation, or all")
		full       = flag.Bool("full", false, "paper scale: 150 processes, 300-800 tasks per process")
		processes  = flag.Int("processes", 0, "override the number of traces per application")
		tasks      = flag.Int("tasks", 0, "override tasks per process (exact count)")
		seed       = flag.Int64("seed", 20190415, "random seed for trace generation")
		milpNodes  = flag.Int("milp-nodes", 1500, "branch-and-bound node budget per MILP window (Fig 7)")
		workers    = flag.Int("workers", 0, "worker goroutines for the experiment drivers (0 = all cores, 1 = serial); output is identical at every setting")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event (Perfetto-loadable) JSON file of the sweep execution")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
		robustness = flag.Bool("robustness", false, "run the robustness-under-misprediction study instead of a figure")
	)
	flag.Parse()

	cfg := experiments.QuickConfig()
	if *full {
		cfg = experiments.DefaultConfig()
	}
	cfg.Seed = *seed
	if *processes > 0 {
		cfg.Processes = *processes
	}
	if *tasks > 0 {
		cfg.MinTasks, cfg.MaxTasks = *tasks, *tasks
	}
	cfg.Workers = *workers

	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: debug server on http://%s\n", srv.Addr)
		cfg.Metrics = obs.Default()
	}
	if *traceOut != "" {
		cfg.Trace = obs.NewTrace()
		cfg.Metrics = obs.Default()
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	var runErr error
	if *robustness {
		runErr = runRobustness(cfg)
	} else {
		runErr = run(*fig, cfg, *milpNodes)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
	if *traceOut != "" {
		if err := cfg.Trace.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d trace events to %s (load in Perfetto or chrome://tracing)\n",
			cfg.Trace.Len(), *traceOut)
	}
}

// runRobustness drives the robustness study for both applications.
func runRobustness(cfg experiments.Config) error {
	w := os.Stdout
	for _, app := range []string{"HF", "CCSD"} {
		fmt.Fprintf(w, "==== Robustness: %s heuristic ranking under misprediction ====\n", app)
		if _, err := experiments.Robustness(w, app, cfg, experiments.RobustnessOptions{}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func run(fig string, cfg experiments.Config, milpNodes int) error {
	valid := map[string]bool{"all": true, "7": true, "8": true, "9": true,
		"10": true, "11": true, "12": true, "13": true, "table6": true,
		"ablation": true}
	if !valid[fig] {
		return fmt.Errorf("unknown figure %q (want 7-13, table6, ablation or all)", fig)
	}
	w := os.Stdout
	want := func(name string) bool { return fig == "all" || fig == name }

	if want("7") {
		fmt.Fprintln(w, "==== Fig 7: heuristics vs windowed MILP (single HF trace) ====")
		f7 := cfg
		if fig == "all" {
			// lp.k runs a branch-and-bound MILP per window of every k at
			// every capacity; keep the combined run tractable and let
			// `-fig 7 -tasks N -milp-nodes M` choose the full study.
			f7.MinTasks, f7.MaxTasks = 18, 18
			f7.Multipliers = []float64{1, 1.5, 2}
			if milpNodes > 300 {
				milpNodes = 300
			}
		}
		if err := experiments.Fig7(w, f7, milpNodes); err != nil {
			return err
		}
	}
	if want("8") {
		fmt.Fprintln(w, "==== Fig 8: workload characteristics ====")
		if err := experiments.Fig8(w, cfg); err != nil {
			return err
		}
	}
	var hfSweep, ccsdSweep *experiments.Sweep
	if want("9") {
		fmt.Fprintln(w, "==== Fig 9: HF ratio-to-optimal distributions ====")
		sw, err := experiments.Fig9(w, cfg)
		if err != nil {
			return err
		}
		hfSweep = sw
	}
	if want("10") {
		fmt.Fprintln(w, "==== Fig 10: HF best variants per category ====")
		if err := experiments.Fig10(w, cfg, hfSweep); err != nil {
			return err
		}
	}
	if want("11") {
		fmt.Fprintln(w, "==== Fig 11: CCSD ratio-to-optimal distributions ====")
		sw, err := experiments.Fig11(w, cfg)
		if err != nil {
			return err
		}
		ccsdSweep = sw
	}
	if want("12") {
		fmt.Fprintln(w, "==== Fig 12: CCSD best variants per category ====")
		if err := experiments.Fig12(w, cfg, ccsdSweep); err != nil {
			return err
		}
	}
	if want("13") {
		fmt.Fprintln(w, "==== Fig 13: best variants with batches of 100 ====")
		if err := experiments.Fig13(w, cfg); err != nil {
			return err
		}
	}
	if want("table6") {
		fmt.Fprintln(w, "==== Table 6: favorable situations ====")
		if _, err := experiments.Table6(w, cfg); err != nil {
			return err
		}
	}
	if want("ablation") {
		fmt.Fprintln(w, "==== Ablations: design choices (DESIGN.md §6) ====")
		if _, err := experiments.Ablations(w, cfg); err != nil {
			return err
		}
	}
	return nil
}
