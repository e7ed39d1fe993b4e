package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/lpsched"
	"transched/internal/par"
	"transched/internal/simulate"
	"transched/internal/testutil"
)

// AblationRow reports one design-choice comparison: a quality metric
// (mean ratio to optimal) and wall time for the production configuration
// and its ablated variant.
type AblationRow struct {
	Name                string
	Production, Ablated float64
	ProductionTime      time.Duration
	AblatedTime         time.Duration
	Metric              string
}

// Ablations measures the design choices DESIGN.md §6 calls out on seeded
// random workloads (quality knobs) and the CCSD trace set (cost knobs).
// The benchmark suite measures the same knobs with finer timing; this
// driver produces the summary table.
func Ablations(w io.Writer, cfg Config) ([]AblationRow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	instances := make([]*core.Instance, 40)
	for i := range instances {
		instances[i] = testutil.RandomInstance(rng, 80, 10)
	}

	// The instances fan out on cfg.Workers goroutines; ratios land in
	// index-addressed slots and are reduced in a fixed order afterwards,
	// so the reported mean is identical at every worker count.
	meanRatio := func(run func(in *core.Instance) (*core.Schedule, error)) (float64, time.Duration, error) {
		ratios := make([]float64, len(instances))
		start := time.Now() //transched:allow-clock wall-time column of the ablation table; quality columns are clock-free
		err := par.ForEachIndexErr(cfg.Workers, len(instances), func(_, i int) error {
			s, err := run(instances[i])
			if err != nil {
				return err
			}
			ratios[i] = s.Makespan() / flowshop.OMIM(instances[i].Tasks)
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		total := 0.0
		for _, r := range ratios {
			total += r
		}
		//transched:allow-clock wall-time column of the ablation table; the mean ratio is clock-free
		return total / float64(len(instances)), time.Since(start), nil
	}

	var rows []AblationRow

	// 1. Min-induced-idle pre-filter in dynamic selection.
	prod, pt, err := meanRatio(func(in *core.Instance) (*core.Schedule, error) {
		return simulate.Run(in, simulate.Policy{Crit: simulate.LargestComm})
	})
	if err != nil {
		return nil, err
	}
	abl, at, err := meanRatio(func(in *core.Instance) (*core.Schedule, error) {
		return simulate.Run(in, simulate.Policy{Crit: simulate.LargestComm, NoIdleFilter: true})
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:       "dynamic min-idle pre-filter (vs criterion only)",
		Production: prod, Ablated: abl, ProductionTime: pt, AblatedTime: at,
		Metric: "mean ratio to optimal",
	})

	// 2. Corrections vs wait-for-head on the Johnson order.
	prod, pt, err = meanRatio(func(in *core.Instance) (*core.Schedule, error) {
		return simulate.Corrected(in, flowshop.JohnsonOrder(in.Tasks), simulate.LargestComm)
	})
	if err != nil {
		return nil, err
	}
	abl, at, err = meanRatio(func(in *core.Instance) (*core.Schedule, error) {
		return simulate.Static(in, flowshop.JohnsonOrder(in.Tasks))
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:       "dynamic corrections (vs waiting for the head)",
		Production: prod, Ablated: abl, ProductionTime: pt, AblatedTime: at,
		Metric: "mean ratio to optimal",
	})

	// 3. MILP incumbent seeding: nodes to solve small windows.
	milpIn := testutil.RandomInstance(rand.New(rand.NewSource(cfg.Seed+1)), 9, 5)
	runMILP := func(noSeed bool) (float64, time.Duration, error) {
		start := time.Now() //transched:allow-clock wall-time column of the ablation table; the node count is clock-free
		res, err := lpsched.Solve(milpIn, lpsched.Options{
			K: 3, MaxNodesPerWindow: 2000, NoIncumbentSeed: noSeed,
		})
		if err != nil {
			return 0, 0, err
		}
		//transched:allow-clock wall-time column of the ablation table; the node count is clock-free
		return float64(res.Nodes), time.Since(start), nil
	}
	prod, pt, err = runMILP(false)
	if err != nil {
		return nil, err
	}
	abl, at, err = runMILP(true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:       "MILP incumbent seeding (vs cold start)",
		Production: prod, Ablated: abl, ProductionTime: pt, AblatedTime: at,
		Metric: "branch-and-bound nodes",
	})

	// 4. Parallel sweep workers vs the serial reference loop. The quality
	// columns must be identical — the pool's determinism guarantee — and
	// the time columns show the fan-out gain on this machine.
	sweepCfg := cfg
	sweepCfg.Processes, sweepCfg.MinTasks, sweepCfg.MaxTasks = 4, 40, 60
	swTraces, err := GenerateTraces("HF", sweepCfg)
	if err != nil {
		return nil, err
	}
	sweepMean := func(workers int) (float64, time.Duration, error) {
		start := time.Now() //transched:allow-clock wall-time column of the ablation table; the mean ratio is clock-free
		sw, err := RunSweep("HF", swTraces, []float64{1, 1.5, 2}, SweepOptions{Workers: workers})
		if err != nil {
			return 0, 0, err
		}
		total, n := 0.0, 0
		for h := range sw.Heuristics {
			for m := range sw.Multipliers {
				for _, r := range sw.Ratios[h][m] {
					total += r
					n++
				}
			}
		}
		//transched:allow-clock wall-time column of the ablation table; the mean ratio is clock-free
		return total / float64(n), time.Since(start), nil
	}
	prod, pt, err = sweepMean(0) // all cores
	if err != nil {
		return nil, err
	}
	abl, at, err = sweepMean(1) // serial
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Name:       "parallel sweep workers (vs serial loop)",
		Production: prod, Ablated: abl, ProductionTime: pt, AblatedTime: at,
		Metric: "mean ratio (equal = deterministic)",
	})

	if w != nil {
		fmt.Fprintf(w, "%-48s %14s %14s %12s %12s  %s\n",
			"design choice", "production", "ablated", "prod time", "abl time", "metric")
		for _, r := range rows {
			fmt.Fprintf(w, "%-48s %14.4f %14.4f %12s %12s  %s\n",
				r.Name, r.Production, r.Ablated,
				r.ProductionTime.Round(time.Millisecond),
				r.AblatedTime.Round(time.Millisecond), r.Metric)
		}
	}
	return rows, nil
}
