package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"transched/internal/chem"
	"transched/internal/core"
	"transched/internal/model"
	"transched/internal/par"
	"transched/internal/simulate"
	"transched/internal/stats"
	"transched/internal/trace"
)

// DefaultNoiseLevels scale the calibrated sigma for the robustness
// sweep: the exact-duration baseline, half the fitted residual spread,
// the spread itself, and twice it.
func DefaultNoiseLevels() []float64 { return []float64{0, 0.5, 1, 2} }

// RunRobustSweep is RunSweep under duration misprediction: each cell
// perturbs the trace's durations with seeded lognormal noise of the
// given sigma (model.PerturbTasks; memory requirements stay exact), lets
// the heuristic commit a placement order on the perturbed instance, and
// then replays that order as a static sequence on the true instance —
// the plan-ahead runtime model, where scheduling decisions are made on
// estimates and execution reveals the real durations. The reported
// ratio is true makespan over true OMIM, so columns are comparable
// across noise levels.
//
// sigma = 0 delegates to RunSweep, so the zero-noise sweep is
// byte-identical to the standard one by construction (the
// TestRobustnessZeroNoiseByteIdentical contract). The sweep is
// unbatched: opts.BatchSize is ignored, as the replay permutation is a
// whole-trace commitment.
func RunRobustSweep(app string, traces []*trace.Trace, multipliers []float64, sigma float64, seed int64, opts SweepOptions) (*Sweep, error) {
	if sigma == 0 {
		opts.BatchSize = 0
		return RunSweep(app, traces, multipliers, opts)
	}
	sc, err := newSweepCells(app, traces, multipliers, opts.Heuristics)
	if err != nil {
		return nil, err
	}
	sw, names := sc.sw, sc.sw.Heuristics

	// The per-trace perturbation is seeded by trace index, not by cell:
	// every capacity multiplier sees the same mispredicted durations, as
	// it would in a real system where the estimate precedes the sweep.
	// The plans are built on those durations, once per trace.
	perturbed := make([][]core.Task, len(traces))
	index := make([]map[string]int, len(traces))
	for t, tr := range traces {
		perturbed[t] = model.PerturbTasks(tr.Tasks, sigma, seed+int64(t))
		index[t] = make(map[string]int, len(tr.Tasks))
		for i, task := range tr.Tasks {
			index[t][task.Name] = i
		}
	}

	nm := len(multipliers)
	plans := newTracePlans(len(traces), nm)
	err = par.ForEachIndexErr(opts.Workers, len(traces)*nm, func(_, u int) error {
		t, m := u/nm, u%nm
		tr := traces[t]
		mult := multipliers[m]
		capacity := sc.mcs[t] * mult
		trueIn := &core.Instance{Tasks: tr.Tasks, Capacity: capacity}
		for h, plan := range plans[t].get(perturbed[t], 0, sc.pols) {
			planned, err := plan.Run(capacity)
			if err != nil {
				return fmt.Errorf("experiments: %s planning on %s/%d at %gx (sigma %g): %w",
					names[h], tr.App, tr.Process, mult, sigma, err)
			}
			executed, err := replay(trueIn, index[t], planned)
			if err != nil {
				return fmt.Errorf("experiments: %s replay on %s/%d at %gx (sigma %g): %w",
					names[h], tr.App, tr.Process, mult, sigma, err)
			}
			sw.Ratios[h][m][t] = executed.Makespan() / sc.omims[t]
		}
		plans[t].done()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// replay executes a planned schedule's placement order on the true
// instance: the link is serial, so the plan's communication-start order
// is the total order the scheduler committed to, and running it as a
// static sequence (memory feasibility still enforced — Mem is exact) is
// what execution under the real durations does to the plan. index maps
// a task name to its position in trueIn.Tasks.
func replay(trueIn *core.Instance, index map[string]int, planned *core.Schedule) (*core.Schedule, error) {
	perm := make([]int, 0, len(planned.Assignments))
	for _, a := range planned.Assignments {
		i, ok := index[a.Task.Name]
		if !ok {
			return nil, fmt.Errorf("planned task %q not in true instance", a.Task.Name)
		}
		perm = append(perm, i)
	}
	return simulate.Static(trueIn, perm)
}

// RobustnessOptions configures the Robustness driver.
type RobustnessOptions struct {
	// Workers bounds the sweep worker pool (0 = all cores).
	Workers int
	// Levels scale the calibrated sigma; nil means DefaultNoiseLevels.
	Levels []float64
	// Heuristics selects a subset by acronym; nil means all fourteen.
	Heuristics []string
}

func (o RobustnessOptions) levels() []float64 {
	if len(o.Levels) == 0 {
		return DefaultNoiseLevels()
	}
	return o.Levels
}

// RobustnessResult carries everything the Robustness driver computed,
// for callers that want the numbers as data rather than rendered text.
type RobustnessResult struct {
	App    string
	Report *model.FitReport
	// Sigmas[l] is the absolute noise level of sweep l.
	Sigmas []float64
	Sweeps []*Sweep
	// Cells is the total number of (trace, multiplier, level) sweep
	// cells evaluated.
	Cells int
}

// Robustness regenerates the "robustness Fig 7": it fits a duration
// model to the annotated workload, calibrates the noise level from the
// fit's residuals, reruns the 14-heuristic sweep at increasing noise,
// and renders (a) the usual per-capacity blocks for every level — the
// zero-noise block byte-identical to the standard sweep — and (b) a
// ranking-stability table: per-heuristic mean-of-median ratios, their
// rank at each level, and Kendall's tau against the exact-duration
// ranking.
func Robustness(w io.Writer, app string, cfg Config, opts RobustnessOptions) (*RobustnessResult, error) {
	traces, err := GenerateAnnotatedTraces(app, cfg)
	if err != nil {
		return nil, err
	}
	_, rep, err := model.FitDurationModel(traces, model.FitOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s duration-model calibration (ridge)\n", app)
	fmt.Fprintf(w, "  CM: n=%d  cv-mape=%.4f  cv-r2=%.6f  digest=%s\n", rep.NCM, rep.CVCM.MAPE, rep.CVCM.R2, rep.DigestCM)
	fmt.Fprintf(w, "  CP: n=%d  cv-mape=%.4f  cv-r2=%.6f  digest=%s\n", rep.NCP, rep.CVCP.MAPE, rep.CVCP.R2, rep.DigestCP)
	fmt.Fprintf(w, "  sigma: raw=%.6f calibrated=%.6f (floor %.2f)\n\n", rep.SigmaRaw, rep.Sigma, model.MinSigma)

	levels := opts.levels()
	res := &RobustnessResult{App: app, Report: rep}
	multipliers := cfg.multipliers()
	sweepOpts := SweepOptions{
		Workers:    cfg.Workers,
		Heuristics: opts.Heuristics,
		Trace:      cfg.Trace,
		Metrics:    cfg.Metrics,
	}
	if opts.Workers != 0 {
		sweepOpts.Workers = opts.Workers
	}
	for _, level := range levels {
		sigma := level * rep.Sigma
		fmt.Fprintf(w, "=== %s sweep at noise sigma %.6f (%.2gx calibrated) ===\n", app, sigma, level)
		sw, err := RunRobustSweep(app, traces, multipliers, sigma, cfg.Seed, sweepOpts)
		if err != nil {
			return nil, err
		}
		if err := sw.Render(w); err != nil {
			return nil, err
		}
		res.Sigmas = append(res.Sigmas, sigma)
		res.Sweeps = append(res.Sweeps, sw)
		res.Cells += len(traces) * len(multipliers)
	}
	return res, renderRobustnessTable(w, res)
}

// score is the scalar the ranking table orders heuristics by: the mean
// over capacity multipliers of the median ratio-to-optimal (lower is
// better) — Fig 7's reading of a sweep, collapsed to one number.
func (sw *Sweep) score(h int) float64 {
	sum := 0.0
	for m := range sw.Multipliers {
		sum += sw.SummaryFor(h, m).Median
	}
	return sum / float64(len(sw.Multipliers))
}

func renderRobustnessTable(w io.Writer, res *RobustnessResult) error {
	if len(res.Sweeps) == 0 {
		return nil
	}
	base := res.Sweeps[0]
	names := base.Heuristics
	scores := make([][]float64, len(res.Sweeps))
	ranks := make([][]int, len(res.Sweeps))
	for l, sw := range res.Sweeps {
		scores[l] = make([]float64, len(names))
		for h := range names {
			scores[l][h] = sw.score(h)
		}
		ranks[l] = rankOf(scores[l])
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: heuristic ranking vs duration-misprediction noise (score = mean over capacities of median ratio-to-optimal; rank 1 = best)\n", res.App)
	fmt.Fprintf(&sb, "%-10s", "heuristic")
	for _, sigma := range res.Sigmas {
		fmt.Fprintf(&sb, "  %14s", fmt.Sprintf("sigma=%.4f", sigma))
	}
	sb.WriteByte('\n')
	for h, name := range names {
		fmt.Fprintf(&sb, "%-10s", name)
		for l := range res.Sweeps {
			fmt.Fprintf(&sb, "  %8.4f (%2d)", scores[l][h], ranks[l][h])
		}
		if d := degradation(scores, h); d != "" {
			sb.WriteString("  " + d)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-10s", "tau vs 0")
	for l := range res.Sweeps {
		fmt.Fprintf(&sb, "  %14.4f", stats.KendallTau(scores[0], scores[l]))
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// degradation prints the makespan-degradation factor of the last level
// relative to the exact-duration score.
func degradation(scores [][]float64, h int) string {
	if len(scores) < 2 {
		return ""
	}
	base := scores[0][h]
	if base <= 0 {
		return ""
	}
	return fmt.Sprintf("degr %.3fx", scores[len(scores)-1][h]/base)
}

// rankOf returns 1-based ranks (1 = smallest score), ties broken by
// index so the ranking is total and deterministic.
func rankOf(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	ranks := make([]int, len(scores))
	for pos, h := range order {
		ranks[h] = pos + 1
	}
	return ranks
}

// GenerateAnnotatedTraces builds the configured trace set with model
// feature annotations — the training inputs for FitDurationModel. The
// task streams are byte-identical to GenerateTraces' (annotation draws
// no randomness).
func GenerateAnnotatedTraces(app string, cfg Config) ([]*trace.Trace, error) {
	return chem.Generate(app, cfg.Machine, chem.Config{
		Seed:      cfg.Seed,
		Processes: cfg.Processes,
		MinTasks:  cfg.MinTasks,
		MaxTasks:  cfg.MaxTasks,
		Annotate:  true,
	})
}
