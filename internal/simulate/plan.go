package simulate

import (
	"math"
	"sort"
	"sync"

	"transched/internal/core"
)

// Plan is the capacity-free half of scheduling a task set with a policy
// in submission batches. For every batch it holds what the event loop
// reads but never writes: the static scan order (when the policy's order
// is capacity-free), the criterion keys, and the memory-ascending,
// communication-ascending and key-descending indexes that accelerate
// dynamic selection. Run drives
// the event loop from it at any capacity, so a capacity sweep builds one
// plan per trace and heuristic and runs it at every capacity. A plan is
// read-only once built: runs may proceed concurrently from several
// goroutines, and each run's result is bit-identical to a fresh
// RunBatches call with the same tasks, batch size, policy and capacity.
//
// A capacity-dependent order (Policy.CapacityOrder) is computed afresh
// in every run, at that run's capacity.
type Plan struct {
	tasks   []core.Task
	policy  Policy
	err     error // a malformed policy; Run reports it after the task checks
	batches []planBatch
	// valid says every task passed Validate at build time, and maxMem is
	// then the largest requirement: a run at a capacity that holds it
	// needs no per-task check.
	valid  bool
	maxMem float64

	// Arenas the batches' selection indexes are cut from; a pooled plan
	// reuses them.
	key, comm, mem    []float64
	sorted, memSorted []int
	commPos           []int
	commAt, memAt     []float64
	keySort           keySorter
	memSort           memSorter
}

// planBatch is the capacity-free work of one submission batch.
type planBatch struct {
	tasks []core.Task
	order []int // capacity-free scan order; nil when the policy has none

	// Selection indexes, built only when the policy has a criterion.
	key, comm, mem []float64 // per batch index
	sorted         []int     // key descending, index ascending; nil when hasNaN or coMono
	memSorted      []int     // memory, then comm, then index ascending
	hasNaN         bool

	// The communication-ascending index behind the indexed pick
	// (selector.pickIndexed), set only when coMono: no key is NaN and
	// memory is non-decreasing along the (comm, memory, index) order.
	// byComm lists batch indices in that order (it is memSorted), commAt
	// and memAt lay their communication times and requirements out
	// along it, and commPos maps a batch index to its position.
	byComm, commPos []int
	commAt, memAt   []float64
	coMono          bool
}

// NewPlan builds the capacity-free work for scheduling tasks with the
// policy in submission batches of batchSize (batchSize <= 0 means a
// single batch). The plan keeps tasks without copying them, so they must
// not change while it is in use. Invalid tasks, a malformed policy and a
// malformed order are reported by Run, in the order RunBatches reports
// them.
func NewPlan(tasks []core.Task, batchSize int, p Policy) *Plan {
	pl := new(Plan)
	pl.build(tasks, submissionBatches(len(tasks), batchSize), p, nil, false)
	return pl
}

// submissionBatches maps RunBatches' batch size onto build's: a
// non-positive size is one batch of every task, and an empty task set
// has no batch at all.
func submissionBatches(n, batchSize int) int {
	if batchSize <= 0 {
		return max(n, 1)
	}
	return batchSize
}

// Run schedules the plan's tasks under the memory capacity. It never
// writes to the plan.
func (pl *Plan) Run(capacity float64) (*core.Schedule, error) {
	s, _, err := pl.run(capacity, true)
	return s, err
}

// Makespan is Run without the schedule: the event loop runs in trial
// mode, recording no assignment, and returns the exact float Run's
// schedule would report as its makespan. The capacity sweeps need
// nothing else.
func (pl *Plan) Makespan(capacity float64) (float64, error) {
	_, span, err := pl.run(capacity, false)
	return span, err
}

func (pl *Plan) run(capacity float64, record bool) (*core.Schedule, float64, error) {
	if !pl.valid || pl.maxMem > capacity+eps {
		if err := checkFits(&core.Instance{Tasks: pl.tasks, Capacity: capacity}); err != nil {
			return nil, 0, err
		}
	}
	st := getState(capacity)
	defer putState(st)
	if record {
		st.schedule = core.NewScheduleCap(capacity, len(pl.tasks))
	}
	if err := pl.runOn(st); err != nil {
		return nil, 0, err
	}
	s := st.schedule
	st.schedule = nil
	return s, st.span, nil
}

// runOn runs every batch of the plan on st, continuing from its state.
func (pl *Plan) runOn(st *state) error {
	if pl.err != nil {
		return pl.err
	}
	for i := range pl.batches {
		b := &pl.batches[i]
		order := b.order
		if pl.policy.CapacityOrder != nil {
			order = pl.policy.CapacityOrder(b.tasks, st.capacity)
		}
		var err error
		if pl.policy.Crit == nil {
			err = staticInto(st, b.tasks, order)
		} else {
			err = runSelection(st, b, order, pl.policy.NoIdleFilter)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// build fills the plan for tasks cut into submission batches of
// batchSize; batchSize <= 0 makes them exactly one batch, even when there
// are none (Static, Corrected and Executor.RunBatch run one batch
// whatever its size). With ownOrder, fixed is the caller's own order for
// that single batch (Static, Corrected). Nothing is built when a task is
// invalid: Run rejects the tasks before it would read the plan.
func (pl *Plan) build(tasks []core.Task, batchSize int, p Policy, fixed []int, ownOrder bool) {
	pl.tasks, pl.policy, pl.err = tasks, p, nil
	pl.batches = pl.batches[:0]
	pl.valid, pl.maxMem = false, 0
	n := len(tasks)
	nb := 1
	if batchSize > 0 {
		nb = (n + batchSize - 1) / batchSize
	} else {
		batchSize = n
	}
	if nb == 0 {
		return
	}
	if pl.err = p.check(ownOrder); pl.err != nil {
		return
	}
	for _, t := range tasks {
		if t.Validate() != nil {
			return
		}
		pl.maxMem = max(pl.maxMem, t.Mem)
	}
	pl.valid = true
	if p.Crit != nil {
		pl.key = growFloats(pl.key, n)
		pl.comm = growFloats(pl.comm, n)
		pl.mem = growFloats(pl.mem, n)
		pl.sorted = growInts(pl.sorted, n)
		pl.memSorted = growInts(pl.memSorted, n)
		pl.commPos = growInts(pl.commPos, n)
		pl.commAt = growFloats(pl.commAt, n)
		pl.memAt = growFloats(pl.memAt, n)
	}
	for k := 0; k < nb; k++ {
		lo := k * batchSize
		hi := min(lo+batchSize, n)
		b := planBatch{tasks: tasks[lo:hi], order: fixed}
		if p.Order != nil {
			b.order = p.Order(b.tasks)
		}
		if p.Crit != nil {
			pl.index(&b, lo, hi)
		}
		pl.batches = append(pl.batches, b)
	}
}

// index computes batch b's criterion keys once per task and builds its
// selection indexes in arena slots [lo, hi): the memory-ascending index,
// then either the communication-ascending one (a coMono batch) or,
// when no key is NaN, the key-descending one.
func (pl *Plan) index(b *planBatch, lo, hi int) {
	b.key, b.comm, b.mem = pl.key[lo:hi], pl.comm[lo:hi], pl.mem[lo:hi]
	for i, t := range b.tasks {
		k := pl.policy.Crit(t)
		b.key[i], b.comm[i], b.mem[i] = k, t.Comm, t.Mem
		if math.IsNaN(k) {
			b.hasNaN = true
		}
	}
	b.memSorted = pl.memSorted[lo:hi]
	for i := range b.memSorted {
		b.memSorted[i] = i
	}
	pl.memSort = memSorter{mem: b.mem, comm: b.comm, idx: b.memSorted}
	sort.Sort(&pl.memSort)
	if b.hasNaN {
		return
	}
	if pl.indexComm(b, lo, hi) {
		return
	}
	b.sorted = pl.sorted[lo:hi]
	for i := range b.sorted {
		b.sorted[i] = i
	}
	pl.keySort = keySorter{key: b.key, idx: b.sorted}
	sort.Sort(&pl.keySort)
}

// indexComm sets coMono and, when it holds, lays the batch out along
// the communication-ascending index. That index needs no sort of its
// own: memSorted orders by (memory, comm, index), and when comm is
// non-decreasing along it, no task has both less communication and
// more memory than another, so the (comm, memory, index) order is the
// same permutation.
func (pl *Plan) indexComm(b *planBatch, lo, hi int) bool {
	for p := 1; p < len(b.memSorted); p++ {
		if b.comm[b.memSorted[p]] < b.comm[b.memSorted[p-1]] {
			return false
		}
	}
	b.coMono = true
	b.byComm, b.commPos = b.memSorted, pl.commPos[lo:hi]
	b.commAt, b.memAt = pl.commAt[lo:hi], pl.memAt[lo:hi]
	for p, i := range b.byComm {
		b.commPos[i] = p
		b.commAt[p], b.memAt[p] = b.comm[i], b.mem[i]
	}
	return true
}

// planPool recycles the plans of one-shot runs. Every field is rebuilt
// before use, so pooling can never influence a schedule.
var planPool = sync.Pool{New: func() any { return new(Plan) }}

func getPlan() *Plan { return planPool.Get().(*Plan) }

func putPlan(pl *Plan) {
	clear(pl.batches) // drop the tasks and orders the batches reference
	pl.batches = pl.batches[:0]
	pl.tasks, pl.policy, pl.err = nil, Policy{}, nil
	planPool.Put(pl)
}
