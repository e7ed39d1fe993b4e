package simulate

import "transched/internal/core"

// Executor is the incremental form of the batch runner: it holds the
// link, processing-unit and memory state between calls so a runtime
// system can feed it successive groups of ready tasks, possibly switching
// policies between groups (the paper's conclusion sketches exactly such a
// runtime). Clone supports lookahead: a runtime can copy the executor,
// trial-run a candidate policy on the pending batch, and keep the best —
// or, cheaper still, TrialMakespan runs the trial on pooled state without
// materialising a schedule at all.
type Executor struct {
	st *state
}

// NewExecutor returns an executor for a target memory of the given
// capacity, with both resources free at time zero and no resident tasks.
func NewExecutor(capacity float64) *Executor {
	return &Executor{st: newState(capacity)}
}

// Capacity returns the memory capacity.
func (e *Executor) Capacity() float64 { return e.st.capacity }

// LinkAvailable returns the time at which the communication link frees.
func (e *Executor) LinkAvailable() float64 { return e.st.tauComm }

// UnitAvailable returns the time at which the processing unit frees.
func (e *Executor) UnitAvailable() float64 { return e.st.tauComp }

// MemoryInUse returns the memory held by tasks whose computations have
// not finished by the link-available time. It reads the kernel's
// incrementally maintained memory counter after retiring the releases
// due by that time — O(released · log n) instead of the former O(n)
// rescan of every pending release. Retiring them early is observationally
// neutral: the next placement's first act is to release the same set in
// the same placement order, so every subsequent fits decision sees
// bit-identical state.
func (e *Executor) MemoryInUse() float64 {
	e.st.releaseUntil(e.st.tauComm)
	return e.st.used
}

// Scheduled returns the number of tasks placed so far.
func (e *Executor) Scheduled() int { return len(e.st.schedule.Assignments) }

// RunBatch schedules one group of ready tasks with the policy, continuing
// from the current state. Tasks whose memory requirement exceeds the
// capacity are rejected before any state changes.
func (e *Executor) RunBatch(p Policy, tasks []core.Task) error {
	if err := checkFits(&core.Instance{Tasks: tasks, Capacity: e.st.capacity}); err != nil {
		return err
	}
	err := runBatchInto(e.st, p, tasks)
	if err == nil {
		e.st.stats.Batches++
	}
	return err
}

// TrialMakespan runs the policy on the batch against a throwaway copy of
// the executor's state and returns the resulting makespan, leaving the
// executor untouched. It is equivalent to — and returns the exact float
// of — Clone + RunBatch + Makespan, but the trial state comes from the
// kernel pool and records no schedule, so a runtime can afford one trial
// per candidate policy per batch (rts.Auto does exactly that).
func (e *Executor) TrialMakespan(p Policy, tasks []core.Task) (float64, error) {
	if err := checkFits(&core.Instance{Tasks: tasks, Capacity: e.st.capacity}); err != nil {
		return 0, err
	}
	st := getState(e.st.capacity)
	defer putState(st)
	st.tauComm, st.tauComp = e.st.tauComm, e.st.tauComp
	st.used, st.span = e.st.used, e.st.span
	st.relSeq = e.st.relSeq
	st.releases = append(st.releases[:0], e.st.releases...)
	if err := runBatchInto(st, p, tasks); err != nil {
		return 0, err
	}
	return st.span, nil
}

// Stats returns the executor's work counters so far (batches completed,
// tasks placed, memory-release stalls, peak resident memory, and the
// paths dynamic selection took). Purely observational: reading or
// ignoring it never changes a schedule.
func (e *Executor) Stats() ExecStats { return e.st.stats }

// Clone returns an independent copy of the executor (state and schedule),
// for lookahead trials. The copy is O(pending releases): the assignments
// built so far are shared copy-on-write with the original — the clone's
// schedule slice is capacity-clamped onto the original's backing array,
// so the first Append on either side reallocates privately. Nothing in
// this repository mutates an Assignment in place, which is what keeps the
// sharing sound.
func (e *Executor) Clone() *Executor {
	src := e.st
	st := &state{
		capacity: src.capacity,
		tauComm:  src.tauComm,
		tauComp:  src.tauComp,
		used:     src.used,
		span:     src.span,
		relSeq:   src.relSeq,
		releases: append(releaseHeap(nil), src.releases...),
		schedule: core.NewSchedule(src.capacity),
		stats:    src.stats,
	}
	a := src.schedule.Assignments
	st.schedule.Assignments = a[:len(a):len(a)]
	return &Executor{st: st}
}

// Schedule returns the schedule built so far. The returned value is live:
// further RunBatch calls extend it.
func (e *Executor) Schedule() *core.Schedule { return e.st.schedule }

// Makespan returns the completion time of the last computation so far.
// The kernel tracks it incrementally as placements happen, so this is
// O(1) rather than a scan of the schedule.
func (e *Executor) Makespan() float64 { return e.st.span }
