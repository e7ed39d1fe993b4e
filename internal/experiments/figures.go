package experiments

import (
	"fmt"
	"io"

	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/lpsched"
	"transched/internal/par"
	"transched/internal/stats"
	"transched/internal/trace"
)

// Fig7 compares every heuristic with the windowed MILP lp.k (k = 3..6) on
// a single trace across the capacity grid, as paper Fig 7 does with its
// single HF trace file (mc = 176 KB there). MaxTasks in the config bounds
// the trace length because every window is a branch-and-bound solve. The
// per-capacity columns are independent, so they fan out on cfg.Workers
// goroutines with index-addressed writes (output is identical at every
// worker count).
func Fig7(w io.Writer, cfg Config, milpNodes int) error {
	cfgOne := cfg
	cfgOne.Processes = 1
	traces, err := GenerateTraces("HF", cfgOne)
	if err != nil {
		return err
	}
	tr := traces[0]
	mc := tr.MinCapacity()
	omim := flowshop.OMIM(tr.Tasks)

	names := append([]string{}, heuristics.Names()...)
	ks := []int{3, 4, 5, 6}
	for _, k := range ks {
		names = append(names, fmt.Sprintf("lp.%d", k))
	}

	fmt.Fprintf(w, "Fig 7: single %s trace, %d tasks, mc = %.4g\n", tr.App, len(tr.Tasks), mc)
	mults := cfg.multipliers()
	series := make([]stats.Series, len(names))
	for i := range series {
		series[i] = stats.Series{
			Name: names[i],
			X:    append([]float64{}, mults...),
			Y:    make([]float64, len(mults)),
		}
	}
	gaps := make([]stats.Series, len(ks))
	for j, k := range ks {
		gaps[j] = stats.Series{
			Name: fmt.Sprintf("lp.%d", k),
			X:    append([]float64{}, mults...),
			Y:    make([]float64, len(mults)),
		}
	}
	nh := len(heuristics.Names())
	err = par.ForEachIndexErr(cfg.Workers, len(mults), func(_, m int) error {
		capacity := mc * mults[m]
		in := tr.Instance(capacity)
		for col, h := range heuristics.All(capacity) {
			s, err := h.Run(in)
			if err != nil {
				return err
			}
			series[col].Y[m] = s.Makespan() / omim
		}
		for j, k := range ks {
			// Workers: 1 — the capacity columns already fan out above, so
			// the inner branch and bound stays serial (the result is
			// bit-identical either way).
			res, err := lpsched.Solve(in, lpsched.Options{
				K: k, MaxNodesPerWindow: milpNodes, Workers: 1,
			})
			if err != nil {
				return err
			}
			if err := res.Schedule.Validate(); err != nil {
				return fmt.Errorf("experiments: lp.%d produced an invalid schedule: %w", k, err)
			}
			series[nh+j].Y[m] = res.Schedule.Makespan() / omim
			gaps[j].Y[m] = res.Gap
		}
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, stats.SeriesTable(
		"ratio to optimal per capacity multiplier (rows) and heuristic (columns)",
		"capacity x mc", series)); err != nil {
		return err
	}
	_, err = io.WriteString(w, stats.SeriesTable(
		"worst window optimality gap per capacity multiplier (0 = every window solved to proven optimality)",
		"capacity x mc", gaps))
	return err
}

// Fig8 writes the workload-characteristics tables for both applications.
func Fig8(w io.Writer, cfg Config) error {
	for _, app := range []string{"HF", "CCSD"} {
		traces, err := GenerateTraces(app, cfg)
		if err != nil {
			return err
		}
		if err := ComputeCharacteristics(app, traces, cfg.Workers).Render(w); err != nil {
			return err
		}
	}
	return nil
}

// figSweep runs the full per-heuristic distribution figure for one app
// (Fig 9 for HF, Fig 11 for CCSD) and returns the sweep for reuse.
func figSweep(w io.Writer, app string, cfg Config, batch int) (*Sweep, error) {
	traces, err := GenerateTraces(app, cfg)
	if err != nil {
		return nil, err
	}
	sw, err := RunSweep(app, traces, cfg.multipliers(), SweepOptions{
		BatchSize: batch, Workers: cfg.Workers, Trace: cfg.Trace, Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if w != nil {
		if err := sw.Render(w); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// Fig9 renders the HF distribution figure.
func Fig9(w io.Writer, cfg Config) (*Sweep, error) { return figSweep(w, "HF", cfg, 0) }

// Fig11 renders the CCSD distribution figure.
func Fig11(w io.Writer, cfg Config) (*Sweep, error) { return figSweep(w, "CCSD", cfg, 0) }

// Fig10 renders the best-variant-per-category series for HF, reusing a
// sweep when provided.
func Fig10(w io.Writer, cfg Config, sw *Sweep) error {
	if sw == nil {
		var err error
		if sw, err = figSweep(nil, "HF", cfg, 0); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, stats.SeriesTable(
		"Fig 10: HF best variants (median ratio to optimal)", "capacity", sw.BestPerCategory()))
	return err
}

// Fig12 renders the best-variant-per-category series for CCSD.
func Fig12(w io.Writer, cfg Config, sw *Sweep) error {
	if sw == nil {
		var err error
		if sw, err = figSweep(nil, "CCSD", cfg, 0); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, stats.SeriesTable(
		"Fig 12: CCSD best variants (median ratio to optimal)", "capacity", sw.BestPerCategory()))
	return err
}

// Fig13 reruns the best-variant study with tasks delivered in submission
// batches of 100 (paper §6.3), for both applications.
func Fig13(w io.Writer, cfg Config) error {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 100
	}
	for _, app := range []string{"HF", "CCSD"} {
		traces, err := GenerateTraces(app, cfg)
		if err != nil {
			return err
		}
		sw, err := RunSweep(app, traces, cfg.multipliers(), SweepOptions{
			BatchSize: batch, Workers: cfg.Workers, Trace: cfg.Trace, Metrics: cfg.Metrics,
		})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Fig 13: %s best variants, batches of %d (median ratio to optimal)", app, batch)
		if _, err := io.WriteString(w, stats.SeriesTable(title, "capacity", sw.BestPerCategory())); err != nil {
			return err
		}
	}
	return nil
}

// Table6Row is the outcome of checking one favorable-situation claim.
type Table6Row struct {
	Heuristic string
	Situation string
	// AdvisedRank is the rank (1 = best) of the advised heuristic among
	// all heuristics on the matching synthetic workload.
	AdvisedRank int
	// Ratio and BestRatio compare the advised heuristic to the best one.
	Ratio, BestRatio float64
}

// Table6 generates a synthetic workload family per favorable situation,
// asks the advisor, and ranks the advised heuristic among all fourteen.
// The families are independent, so they fan out on cfg.Workers
// goroutines; rows are written by family index and rendered afterwards,
// keeping the table order stable at every worker count.
func Table6(w io.Writer, cfg Config) ([]Table6Row, error) {
	fams := Families()
	rows := make([]Table6Row, len(fams))
	err := par.ForEachIndexErr(cfg.Workers, len(fams), func(_, f int) error {
		fam := fams[f]
		in := fam.Build(cfg.Seed)
		advised := heuristics.Advise(in)[0]
		omim := flowshop.OMIM(in.Tasks)

		ratios := map[string]float64{}
		best := 0.0
		for _, h := range heuristics.All(in.Capacity) {
			s, err := h.Run(in)
			if err != nil {
				return err
			}
			r := s.Makespan() / omim
			ratios[h.Name] = r
			if best == 0 || r < best {
				best = r
			}
		}
		rank := 1
		for _, r := range ratios {
			if r < ratios[advised]-1e-12 {
				rank++
			}
		}
		rows[f] = Table6Row{
			Heuristic:   advised,
			Situation:   fam.Name,
			AdvisedRank: rank,
			Ratio:       ratios[advised],
			BestRatio:   best,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if w != nil {
		for _, row := range rows {
			fmt.Fprintf(w, "%-48s advise=%-8s rank=%2d ratio=%.4f best=%.4f\n",
				row.Situation, row.Heuristic, row.AdvisedRank, row.Ratio, row.BestRatio)
		}
	}
	return rows, nil
}

// ReadOrGenerate loads traces from dir when non-empty, else generates.
func ReadOrGenerate(app, dir string, cfg Config) ([]*trace.Trace, error) {
	if dir != "" {
		return trace.ReadSet(dir)
	}
	return GenerateTraces(app, cfg)
}
