// Package rts is a small runtime system over the scheduling machinery —
// the component the paper's conclusion announces ("a runtime system
// aiming at exposing different heuristics to maximize the communication-
// computation overlap at the developer level and automatically selecting
// the best one is currently underway").
//
// A Runtime accepts task submissions (safely from multiple goroutines),
// groups them into batches the way a task-based runtime sees ready tasks
// (paper §6.3), and schedules each batch either with a fixed policy or by
// automatic selection: it clones the executor, trial-runs every candidate
// heuristic on the pending batch, and commits the one with the lowest
// resulting makespan. The executor carries link, processing-unit and
// memory state across batches, so decisions account for still-resident
// transfers.
package rts

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/par"
	"transched/internal/simulate"
)

// Selection chooses how each batch's policy is picked.
type Selection int

const (
	// Fixed uses Config.Policy for every batch.
	Fixed Selection = iota
	// Auto trial-runs every candidate on a clone and keeps the best.
	Auto
)

// Candidate is a named policy competing under Auto selection.
type Candidate struct {
	Name   string
	Policy simulate.Policy
}

// DefaultCandidates returns one strong heuristic per paper category:
// BP (static), LCMR and SCMR (dynamic), and the three corrected variants.
func DefaultCandidates(capacity float64) []Candidate {
	pick := []string{"BP", "LCMR", "SCMR", "OOLCMR", "OOSCMR", "OOMAMR"}
	out := make([]Candidate, 0, len(pick))
	for _, name := range pick {
		h, err := heuristics.ByName(name, capacity)
		if err != nil {
			continue // unreachable: the registry contains all six
		}
		out = append(out, Candidate{Name: h.Name, Policy: h.Policy})
	}
	return out
}

// Config sizes a Runtime.
type Config struct {
	// Capacity is the target memory capacity.
	Capacity float64
	// BatchSize is the number of pending tasks that triggers scheduling
	// (<= 0 means 100, the paper's batch size).
	BatchSize int
	// Selection picks Fixed or Auto.
	Selection Selection
	// Policy is the fixed policy (Fixed mode).
	Policy simulate.Policy
	// Candidates competes in Auto mode; nil means DefaultCandidates.
	Candidates []Candidate
	// Logger, when non-nil, receives one Info record per scheduled batch
	// (size, winner, makespan, memory) and one Warn record per failing
	// Auto candidate, through whatever slog handler the caller
	// configured. Nil disables logging entirely.
	Logger *slog.Logger
	// Workers bounds the goroutines trial-running Auto candidates in
	// parallel (0 means GOMAXPROCS, 1 is the serial reference path).
	// Trials land in index-addressed slots and the winner is reduced
	// serially in candidate order, so the committed schedule, choices and
	// telemetry are bit-identical at every worker count.
	Workers int
	// Context, when non-nil, is checked before each batch's candidate
	// trials; a cancelled or expired context aborts scheduling with
	// ctx.Err() instead of starting more trials.
	Context context.Context
}

// Runtime is an online data-transfer scheduler. It is safe for concurrent
// use.
type Runtime struct {
	mu      sync.Mutex
	cfg     Config
	exec    *simulate.Executor
	pending []core.Task
	choices []string
	batches []BatchRecord
	memHW   float64
	nTasks  int
	closed  bool
}

// CandidateError records one Auto candidate whose trial run failed for a
// batch. Failed trials are excluded from selection but never silently:
// they surface here and through Config.Logger.
type CandidateError struct {
	Candidate string
	Err       string
}

// BatchRecord is the telemetry of one scheduled batch.
type BatchRecord struct {
	// Batch is the 0-based batch sequence number.
	Batch int
	// Size is the number of tasks in the batch.
	Size int
	// Winner is the committed policy: the winning candidate's name under
	// Auto, "fixed" under Fixed.
	Winner string
	// Trialed is the number of candidates trial-run (0 in Fixed mode).
	Trialed int
	// Makespan is the cumulative makespan after committing the batch.
	Makespan float64
	// RunnerUpDelta is how much worse the second-best feasible trial's
	// makespan was than the winner's (0 when fewer than two trials
	// succeeded or in Fixed mode) — the margin Auto selection bought.
	RunnerUpDelta float64
	// MemoryInUse is Executor.MemoryInUse after committing the batch.
	MemoryInUse float64
	// CandidateErrors lists the candidates whose trial runs failed.
	CandidateErrors []CandidateError
}

// Stats is a point-in-time copy of the runtime's telemetry.
type Stats struct {
	// Batches has one record per scheduled batch, in order.
	Batches []BatchRecord
	// Scheduled and Pending mirror the counters of the same names.
	Scheduled, Pending int
	// Makespan is the current cumulative makespan.
	Makespan float64
	// MemoryHighWater is the largest Executor.MemoryInUse observed after
	// any batch commit.
	MemoryHighWater float64
	// PeakMemory is the executor's high-water resident memory, measured
	// at placement time (Schedule.PeakMemory without a rescan).
	PeakMemory float64
	// MemStalls counts placements that waited on a memory release.
	MemStalls int
	// CandidateErrors is the total number of failed candidate trials
	// across all batches.
	CandidateErrors int
}

// New validates the configuration and returns a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("rts: capacity must be positive")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 100
	}
	switch cfg.Selection {
	case Fixed:
		if cfg.Policy.Order == nil && cfg.Policy.CapacityOrder == nil && cfg.Policy.Crit == nil {
			return nil, fmt.Errorf("rts: fixed selection needs a policy")
		}
	case Auto:
		if cfg.Candidates == nil {
			cfg.Candidates = DefaultCandidates(cfg.Capacity)
		}
		if len(cfg.Candidates) == 0 {
			return nil, fmt.Errorf("rts: auto selection needs candidates")
		}
	default:
		return nil, fmt.Errorf("rts: unknown selection mode %d", cfg.Selection)
	}
	return &Runtime{cfg: cfg, exec: simulate.NewExecutor(cfg.Capacity)}, nil
}

// Submit queues tasks; full batches are scheduled immediately. It fails
// without state changes if a task cannot ever fit in memory or the
// runtime is closed.
func (r *Runtime) Submit(tasks ...core.Task) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("rts: runtime is closed")
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if t.Mem > r.cfg.Capacity {
			return fmt.Errorf("rts: task %q needs %g memory, capacity %g", t.Name, t.Mem, r.cfg.Capacity)
		}
	}
	r.pending = append(r.pending, tasks...)
	for len(r.pending) >= r.cfg.BatchSize {
		batch := r.pending[:r.cfg.BatchSize]
		if err := r.scheduleLocked(batch); err != nil {
			return err
		}
		r.pending = r.pending[r.cfg.BatchSize:]
	}
	return nil
}

// Flush schedules any pending tasks as a final (possibly short) batch.
func (r *Runtime) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushLocked()
}

func (r *Runtime) flushLocked() error {
	if len(r.pending) == 0 {
		return nil
	}
	err := r.scheduleLocked(r.pending)
	r.pending = nil
	return err
}

func (r *Runtime) scheduleLocked(batch []core.Task) error {
	rec := BatchRecord{Batch: len(r.batches), Size: len(batch)}
	switch r.cfg.Selection {
	case Fixed:
		if err := r.exec.RunBatch(r.cfg.Policy, batch); err != nil {
			return err
		}
		rec.Winner = "fixed"
	case Auto:
		if r.cfg.Context != nil {
			if err := r.cfg.Context.Err(); err != nil {
				return err
			}
		}
		// Trial every candidate concurrently on pooled throwaway state
		// (Executor.TrialMakespan never mutates r.exec), each writing only
		// its own index-addressed slot; then reduce serially in candidate
		// order, replicating the serial loop's selection decision and
		// telemetry exactly.
		n := len(r.cfg.Candidates)
		spans := make([]float64, n)
		errs := make([]error, n)
		par.ForEachIndex(r.cfg.Workers, n, func(i int) {
			spans[i], errs[i] = r.exec.TrialMakespan(r.cfg.Candidates[i].Policy, batch)
		})
		bestIdx := -1
		bestSpan, runnerUp := 0.0, 0.0
		for i, c := range r.cfg.Candidates {
			if err := errs[i]; err != nil {
				// A failing trial is excluded from selection but reported:
				// silent discards would make Auto's picks unexplainable.
				rec.CandidateErrors = append(rec.CandidateErrors,
					CandidateError{Candidate: c.Name, Err: err.Error()})
				if r.cfg.Logger != nil {
					r.cfg.Logger.Warn("rts: candidate trial failed",
						"batch", rec.Batch, "candidate", c.Name, "err", err)
				}
				continue
			}
			rec.Trialed++
			span := spans[i]
			switch {
			case bestIdx < 0:
				bestIdx, bestSpan = i, span
			case span < bestSpan:
				bestIdx, bestSpan, runnerUp = i, span, bestSpan
			case rec.Trialed == 2 || span < runnerUp:
				runnerUp = span
			}
		}
		if bestIdx < 0 {
			return fmt.Errorf("rts: no candidate could schedule the batch")
		}
		if err := r.exec.RunBatch(r.cfg.Candidates[bestIdx].Policy, batch); err != nil {
			return err
		}
		rec.Winner = r.cfg.Candidates[bestIdx].Name
		if rec.Trialed > 1 {
			rec.RunnerUpDelta = runnerUp - bestSpan
		}
	}
	r.choices = append(r.choices, rec.Winner)
	r.nTasks += len(batch)
	rec.Makespan = r.exec.Makespan()
	rec.MemoryInUse = r.exec.MemoryInUse()
	if rec.MemoryInUse > r.memHW {
		r.memHW = rec.MemoryInUse
	}
	r.batches = append(r.batches, rec)
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info("rts: batch scheduled",
			"batch", rec.Batch, "size", rec.Size, "winner", rec.Winner,
			"trialed", rec.Trialed, "makespan", rec.Makespan,
			"runner_up_delta", rec.RunnerUpDelta, "memory_in_use", rec.MemoryInUse)
	}
	return nil
}

// Stats returns a copy of the runtime's telemetry: one record per
// scheduled batch (winner, trials, runner-up margin, failed candidates,
// memory) plus executor-level counters.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Batches:         make([]BatchRecord, len(r.batches)),
		Scheduled:       r.nTasks,
		Pending:         len(r.pending),
		Makespan:        r.exec.Makespan(),
		MemoryHighWater: r.memHW,
		PeakMemory:      r.exec.Stats().PeakMemory,
		MemStalls:       r.exec.Stats().MemStalls,
	}
	copy(st.Batches, r.batches)
	for i, b := range r.batches {
		st.Batches[i].CandidateErrors = append([]CandidateError(nil), b.CandidateErrors...)
		st.CandidateErrors += len(b.CandidateErrors)
	}
	return st
}

// Close flushes pending tasks and returns the final schedule. Further
// submissions fail; Close is idempotent.
func (r *Runtime) Close() (*core.Schedule, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		if err := r.flushLocked(); err != nil {
			return nil, err
		}
		r.closed = true
	}
	return r.exec.Schedule(), nil
}

// Choices reports, per scheduled batch, which candidate Auto selection
// committed ("fixed" in Fixed mode).
func (r *Runtime) Choices() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.choices...)
}

// Scheduled returns the number of tasks scheduled so far (not pending).
func (r *Runtime) Scheduled() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nTasks
}

// Pending returns the number of submitted-but-unscheduled tasks.
func (r *Runtime) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Makespan returns the makespan of the schedule built so far.
func (r *Runtime) Makespan() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exec.Makespan()
}

// RatioToOptimal returns the current makespan over the infinite-memory
// optimum of every task scheduled so far (the paper's quality metric).
func (r *Runtime) RatioToOptimal() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	tasks := make([]core.Task, 0, r.nTasks)
	for _, a := range r.exec.Schedule().Assignments {
		tasks = append(tasks, a.Task)
	}
	if len(tasks) == 0 {
		return 1
	}
	omim := flowshop.OMIM(tasks)
	if omim <= 0 {
		return 1
	}
	return r.exec.Makespan() / omim
}
