package transched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/par"
	"transched/internal/rts"
)

// SolveOptions selects how Solve schedules a trace. The fields mirror
// the cmd/transched flags of the same names. Unbatched, a solve's
// results are the rows the CLI prints for the same flags. Batched, only
// a named heuristic matches a CLI row (TestSolveBatchedMatchesRunBatches):
// with Heuristic empty, Solve runs the runtime's Auto selection, while
// `transched -batch N` batches each of the fourteen heuristics on its own.
type SolveOptions struct {
	// CapacityMultiplier sizes the memory as a multiple of the trace's
	// minimum requirement mc (the largest single-task footprint).
	// Zero means 1.5, the CLI default; it must be positive and finite.
	CapacityMultiplier float64
	// Heuristic, when non-empty, runs only the named strategy. Empty
	// runs the full fourteen-heuristic portfolio and keeps the best.
	Heuristic string
	// BatchSize, when positive, schedules through the online runtime in
	// submission batches of this size (paper §6.3): automatic per-batch
	// selection with the default candidates when Heuristic is empty (a
	// result the CLI has no row for), fixed policy otherwise.
	BatchSize int
}

// HeuristicResult is one strategy's outcome on an instance.
type HeuristicResult struct {
	// Heuristic is the paper acronym, or "auto" for runtime selection.
	Heuristic string
	// Makespan is the schedule's completion time.
	Makespan float64
	// Ratio is Makespan over the infinite-memory optimum (1 when the
	// optimum is zero, i.e. the empty instance).
	Ratio float64
}

// TimelineEvent is one task's placement, flattened for transport: the
// per-event timeline serving clients receive.
type TimelineEvent struct {
	Task      string
	CommStart float64
	CommEnd   float64
	CompStart float64
	CompEnd   float64
}

// SolveResult is everything Solve learns about an instance: the
// committed schedule, the portfolio comparison, the Table 6 advice and
// the instance profile the CLI header prints.
type SolveResult struct {
	// App, Process and Tasks identify the solved trace.
	App     string
	Process int
	Tasks   int
	// MinCapacity is mc; Capacity = MinCapacity * Multiplier.
	MinCapacity float64
	Multiplier  float64
	Capacity    float64
	// OMIM is the infinite-memory optimal makespan (the lower bound);
	// Sequential is the zero-overlap upper bound.
	OMIM       float64
	Sequential float64
	// Best is the committed strategy; Results lists every strategy run,
	// sorted by makespan (submission order breaks ties).
	Best    HeuristicResult
	Results []HeuristicResult
	// Advised is the Table 6 recommendation for this instance.
	Advised []string
	// Batches and Choices report runtime batching (BatchSize > 0): the
	// number of batches committed and the per-batch winning policy.
	Batches int
	Choices []string
	// Schedule is the committed (validated) schedule.
	Schedule *Schedule
}

// Timeline flattens the committed schedule into transport events, in
// communication-start order (the schedule's canonical order).
func (r *SolveResult) Timeline() []TimelineEvent {
	if r.Schedule == nil {
		return nil
	}
	out := make([]TimelineEvent, len(r.Schedule.Assignments))
	for i, a := range r.Schedule.Assignments {
		out[i] = TimelineEvent{
			Task:      a.Task.Name,
			CommStart: a.CommStart,
			CommEnd:   a.CommEnd(),
			CompStart: a.CompStart,
			CompEnd:   a.CompEnd(),
		}
	}
	return out
}

func ratioTo(makespan, omim float64) float64 {
	if omim <= 0 {
		return 1
	}
	return makespan / omim
}

// Solve schedules one trace end to end — the exported entry the serving
// layer (internal/serve, cmd/transchedd) calls, and the programmatic
// equivalent of running cmd/transched on a trace file. It is
// deterministic: identical trace and options produce an identical
// result, bit for bit.
//
// The context is checked between heuristic runs and between submission
// batches, so a cancelled or expired request abandons the solve at the
// next boundary and returns ctx.Err().
func Solve(ctx context.Context, tr *Trace, opts SolveOptions) (*SolveResult, error) {
	if tr == nil {
		return nil, fmt.Errorf("transched: nil trace")
	}
	if opts.CapacityMultiplier == 0 {
		opts.CapacityMultiplier = 1.5
	}
	if opts.CapacityMultiplier <= 0 || math.IsNaN(opts.CapacityMultiplier) || math.IsInf(opts.CapacityMultiplier, 0) {
		return nil, fmt.Errorf("transched: capacity multiplier %g must be positive and finite", opts.CapacityMultiplier)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	mc := tr.MinCapacity()
	capacity := mc * opts.CapacityMultiplier
	in := core.NewInstance(tr.Tasks, capacity)
	if err := in.Validate(); err != nil {
		return nil, err
	}
	res := &SolveResult{
		App:         tr.App,
		Process:     tr.Process,
		Tasks:       len(tr.Tasks),
		MinCapacity: mc,
		Multiplier:  opts.CapacityMultiplier,
		Capacity:    capacity,
		OMIM:        flowshop.OMIM(in.Tasks),
		Sequential:  in.SequentialMakespan(),
		Advised:     heuristics.Advise(in),
	}

	var err error
	if opts.BatchSize > 0 {
		err = solveBatched(ctx, in, opts, res)
	} else {
		err = solveDirect(ctx, in, opts, res)
	}
	if err != nil {
		return nil, err
	}
	if err := res.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("transched: %s produced an invalid schedule: %w", res.Best.Heuristic, err)
	}
	return res, nil
}

// solveDirect runs the named heuristic, or the whole portfolio keeping
// the best (ties resolved by the paper's figure order, so the winner is
// deterministic). The portfolio fans out on a GOMAXPROCS-bounded pool:
// every heuristic is independent and writes only its index-addressed
// slot, and the winner is reduced serially in figure order afterwards,
// so the result is bit-identical to a serial run.
func solveDirect(ctx context.Context, in *core.Instance, opts SolveOptions, res *SolveResult) error {
	hs := heuristics.All(in.Capacity)
	if opts.Heuristic != "" {
		h, err := heuristics.ByName(opts.Heuristic, in.Capacity)
		if err != nil {
			return err
		}
		hs = []Heuristic{h}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	schedules := make([]*core.Schedule, len(hs))
	errs := make([]error, len(hs))
	par.ForEachIndex(0, len(hs), func(i int) {
		schedules[i], errs[i] = hs[i].Run(in)
	})
	// A cancelled request reports ctx.Err() in preference to any slot
	// error, matching the serial loop's between-heuristics check.
	if err := ctx.Err(); err != nil {
		return err
	}
	var best *core.Schedule
	for i, h := range hs {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", h.Name, errs[i])
		}
		s := schedules[i]
		res.Results = append(res.Results, HeuristicResult{
			Heuristic: h.Name,
			Makespan:  s.Makespan(),
			Ratio:     ratioTo(s.Makespan(), res.OMIM),
		})
		if best == nil || s.Makespan() < best.Makespan() {
			best = s
			res.Best = res.Results[len(res.Results)-1]
		}
	}
	sort.SliceStable(res.Results, func(i, j int) bool {
		return res.Results[i].Makespan < res.Results[j].Makespan
	})
	res.Schedule = best
	return nil
}

// solveBatched feeds the instance through the online runtime in
// submission batches, with automatic per-batch selection when no
// heuristic is named. The context is checked between batches.
func solveBatched(ctx context.Context, in *core.Instance, opts SolveOptions, res *SolveResult) error {
	if in.Capacity <= 0 {
		// rts.New requires a positive capacity; a zero capacity means an
		// empty or all-zero-memory trace, where batching cannot change
		// the outcome — solve it directly instead of rejecting it.
		return solveDirect(ctx, in, opts, res)
	}
	cfg := rts.Config{Capacity: in.Capacity, BatchSize: opts.BatchSize, Context: ctx}
	name := "auto"
	if opts.Heuristic != "" {
		h, err := heuristics.ByName(opts.Heuristic, in.Capacity)
		if err != nil {
			return err
		}
		cfg.Selection, cfg.Policy, name = rts.Fixed, h.Policy, h.Name
	} else {
		cfg.Selection = rts.Auto
	}
	rt, err := rts.New(cfg)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(in.Tasks); lo += opts.BatchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+opts.BatchSize, len(in.Tasks))
		if err := rt.Submit(in.Tasks[lo:hi]...); err != nil {
			return err
		}
	}
	s, err := rt.Close()
	if err != nil {
		return err
	}
	res.Schedule = s
	res.Choices = rt.Choices()
	res.Batches = len(res.Choices)
	res.Best = HeuristicResult{
		Heuristic: name,
		Makespan:  s.Makespan(),
		Ratio:     ratioTo(s.Makespan(), res.OMIM),
	}
	res.Results = []HeuristicResult{res.Best}
	return nil
}
