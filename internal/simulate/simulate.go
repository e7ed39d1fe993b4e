// Package simulate executes data-transfer schedules under a memory
// capacity. It provides the three executor families from paper §4:
//
//   - Static: a precomputed permutation is run on both resources, each
//     transfer starting at the earliest link-free time at which the task's
//     memory fits (waiting for releases).
//   - Dynamic: whenever the link goes idle, the next task is chosen among
//     the unscheduled tasks that currently fit in memory and induce minimum
//     idle time on the processing unit, using a per-heuristic criterion.
//   - Static with dynamic corrections: a precomputed order is followed as
//     long as its head fits; when it does not, a task is selected
//     dynamically and removed from the remaining order.
//
// All three keep the same order on both resources, as in the paper. The
// batch runner (paper §6.3) feeds tasks to a policy in groups of fixed
// size, carrying resource and memory state across groups. Everything a
// run reads that does not depend on the memory capacity — static orders,
// criterion keys, sorted selection indexes — lives in a Plan, which a
// capacity sweep builds once and runs at every capacity.
//
// The event loop is engineered for the daemon's hot path (DESIGN.md
// §"Simulation kernel"): pending memory releases live in a binary
// min-heap, criterion values are computed once per task per batch,
// removals from the remaining order use order-preserving tombstones, and
// working state is pooled — all without changing a single output bit
// relative to the straightforward reference kernel kept in
// reference_test.go. Dynamic selection is that kernel's running
// eps-tolerant scan with three exact accelerations (selector.pick). The
// first is an O(log n) indexed pick over a communication-ordered tree:
// it answers wherever the scan provably reduces to a clean (idle, key)
// argmin (pickIndexed holds the proof) and hands the pick to the scan
// when one of its two guards fails; a batch with a NaN key, or whose
// memory requirements fall where its communication times rise, never
// uses it. The others are a stall check and, on batches without the
// index, a fast path. Every floating-point expression below is kept in the
// reference's exact shape (same operand order, same eps comparisons) so
// optimized and reference schedules are byte-identical.
package simulate

import (
	"fmt"
	"math"
	"sync"

	"transched/internal/core"
)

// Criterion ranks candidate tasks during dynamic selection. Higher key
// wins; ties are broken by submission index (smaller first) so runs are
// deterministic. Criteria must be pure functions of the task: the kernel
// evaluates each task's key exactly once per batch and reuses it across
// every selection round.
type Criterion func(t core.Task) float64

// LargestComm prefers the candidate with the largest communication time
// (the LCMR / OOLCMR criterion).
func LargestComm(t core.Task) float64 { return t.Comm }

// SmallestComm prefers the candidate with the smallest communication time
// (the SCMR / OOSCMR criterion).
func SmallestComm(t core.Task) float64 { return -t.Comm }

// MaxAccelerated prefers the candidate with the largest computation-to-
// communication ratio (the MAMR / OOMAMR criterion).
func MaxAccelerated(t core.Task) float64 { return t.Ratio() }

// Policy describes how one heuristic schedules a set of ready tasks.
//
//   - an order, no Crit: static — execute the order's permutation.
//   - Crit, no order: dynamic — event-loop selection by Crit.
//   - both: static order with dynamic corrections.
//
// An order is either capacity-free (Order, a function of the tasks
// alone) or capacity-dependent (CapacityOrder, also a function of the
// memory capacity of the run, like BP's First-Fit bins). A Plan computes
// a capacity-free order once and reuses it at every capacity; it
// computes a capacity-dependent one afresh in every run. A policy sets
// at most one of the two.
type Policy struct {
	// Order maps the ready tasks to a permutation of their indices.
	Order func(tasks []core.Task) []int
	// CapacityOrder maps the ready tasks and the run's memory capacity to
	// a permutation of the tasks' indices.
	CapacityOrder func(tasks []core.Task, capacity float64) []int
	// Crit ranks fitting candidates during dynamic selection.
	Crit Criterion
	// NoIdleFilter disables the paper's minimum-induced-idle pre-filter
	// during dynamic selection, leaving the criterion alone to choose.
	// The paper's heuristics all keep the filter; this knob exists for the
	// ablation study in DESIGN.md §6.
	NoIdleFilter bool
}

// check reports a malformed policy. ownOrder says the caller supplies
// the order itself (Static, Corrected).
func (p Policy) check(ownOrder bool) error {
	switch {
	case p.Order != nil && p.CapacityOrder != nil:
		return fmt.Errorf("simulate: policy has both a capacity-free and a capacity-dependent order")
	case p.Order == nil && p.CapacityOrder == nil && p.Crit == nil && !ownOrder:
		return fmt.Errorf("simulate: policy has neither an order nor a criterion")
	}
	return nil
}

// Run schedules the whole instance with the policy.
func Run(in *core.Instance, p Policy) (*core.Schedule, error) {
	return RunBatches(in, len(in.Tasks), p)
}

// RunBatches schedules the instance in submission-order batches of the
// given size (paper §6.3 uses 100): the policy only ever sees one batch of
// ready tasks, while link availability, processing-unit availability and
// resident memory carry over between batches. batchSize <= 0 means a
// single batch. It builds a pooled Plan and runs it once.
func RunBatches(in *core.Instance, batchSize int, p Policy) (*core.Schedule, error) {
	return runOnce(in, submissionBatches(len(in.Tasks), batchSize), p, nil, false)
}

// Static executes the permutation `order` over in.Tasks under the memory
// capacity; this is the executor behind every static heuristic (paper
// §4.1). It returns an error if a task's memory requirement exceeds the
// capacity.
func Static(in *core.Instance, order []int) (*core.Schedule, error) {
	return runOnce(in, 0, Policy{}, order, true)
}

// Dynamic runs the dynamic-selection event loop (paper §4.2).
func Dynamic(in *core.Instance, crit Criterion) (*core.Schedule, error) {
	return Run(in, Policy{Crit: crit})
}

// Corrected runs a static order with dynamic corrections (paper §4.3).
func Corrected(in *core.Instance, order []int, crit Criterion) (*core.Schedule, error) {
	return runOnce(in, 0, Policy{Crit: crit}, order, true)
}

// runOnce builds a pooled plan and runs it once at the instance's
// capacity: the one-shot entry points take Plan.Run's path, and the
// pooled arenas keep a single run free of the plan's allocations.
func runOnce(in *core.Instance, batchSize int, p Policy, fixed []int, ownOrder bool) (*core.Schedule, error) {
	pl := getPlan()
	defer putPlan(pl)
	pl.build(in.Tasks, batchSize, p, fixed, ownOrder)
	return pl.Run(in.Capacity)
}

// runBatchInto runs tasks as one batch of the policy on st, continuing
// from its state (Executor.RunBatch and TrialMakespan).
func runBatchInto(st *state, p Policy, tasks []core.Task) error {
	pl := getPlan()
	defer putPlan(pl)
	pl.build(tasks, 0, p, nil, false)
	return pl.runOn(st)
}

// checkFits rejects an invalid task or one whose memory requirement
// exceeds the capacity, whichever comes first in submission order.
func checkFits(in *core.Instance) error {
	for _, t := range in.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if t.Mem > in.Capacity+eps {
			return fmt.Errorf("simulate: task %q needs %g memory, capacity %g", t.Name, t.Mem, in.Capacity)
		}
	}
	return nil
}

// state tracks the executor's resources while building a schedule.
type state struct {
	capacity float64
	tauComm  float64 // link available time
	tauComp  float64 // processing unit available time
	used     float64 // memory currently occupied
	span     float64 // largest computation end so far (the makespan)
	relSeq   int     // next release insertion sequence number

	releases   releaseHeap // pending releases, min-heap on release time
	relScratch []release   // pop buffer for insertion-order accounting
	sel        selector    // dynamic-selection working set, reused per batch

	// schedule receives one assignment per placement; nil runs the batch
	// in trial mode, where placements update resource/memory state and
	// the span but record nothing (Executor.TrialMakespan).
	schedule *core.Schedule
	stats    ExecStats
}

// ExecStats counts the scheduling work an executor has done — the
// telemetry a runtime or sweep reads to see where placements stalled.
// It never influences scheduling decisions.
type ExecStats struct {
	// Batches is the number of completed RunBatch calls.
	Batches int
	// Placed is the number of tasks placed.
	Placed int
	// MemStalls counts placements that had to wait for a memory release
	// before their transfer could start (the link sat idle meanwhile).
	MemStalls int
	// PeakMemory is the high-water mark of resident memory.
	PeakMemory float64

	// Picks counts dynamic-selection rounds (selector.pick calls). Each
	// ends on exactly one of four paths, counted below: nothing fits (a
	// stall), the indexed pick, the fast path, or a full scan.
	Picks       int
	PickStalls  int
	PickIndexed int
	PickFast    int
	PickFull    int
	// Scanned counts the remaining tasks the selection scans visited,
	// fitting or not; Scanned / Placed is the scan cost per placement.
	Scanned int
}

// release is one pending memory release: the instant a placed task's
// computation ends and its memory frees. seq is the placement order,
// kept so memory accounting subtracts in placement order no matter the
// heap's pop order (see releaseUntil).
type release struct {
	at  float64
	mem float64
	seq int
}

// releaseHeap is a binary min-heap of pending releases keyed on release
// time, hand-rolled so push and pop stay allocation-free and inlineable
// (container/heap would box every element through an interface).
type releaseHeap []release

func (h *releaseHeap) push(r release) {
	q := append(*h, r)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].at <= q[i].at {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *releaseHeap) pop() release {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q[r].at < q[l].at {
			c = r
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// statePool recycles kernel working state (release heap, selection
// arenas, scratch) across runs. Every pooled field is fully reset or
// rewritten before use, so pooling can never influence a schedule.
var statePool = sync.Pool{New: func() any { return new(state) }}

func getState(capacity float64) *state {
	st := statePool.Get().(*state)
	st.capacity = capacity
	st.tauComm, st.tauComp, st.used, st.span = 0, 0, 0, 0
	st.relSeq = 0
	st.releases = st.releases[:0]
	st.schedule = nil
	st.stats = ExecStats{}
	return st
}

func putState(st *state) {
	st.schedule = nil // the schedule escapes to the caller; never pool it
	st.sel.unload()
	statePool.Put(st)
}

// newState returns an unpooled state for long-lived executors.
func newState(capacity float64) *state {
	return &state{capacity: capacity, schedule: core.NewSchedule(capacity)}
}

// releaseUntil frees the memory of every task whose computation ends at or
// before time t. Releases are popped from the heap in time order, but the
// memory counter is decremented in placement order: floating-point
// subtraction is not associative, so replaying the reference kernel's
// insertion-order accounting is what keeps `used` — and with it every
// fits decision — bit-identical to the linear release list it replaces.
func (st *state) releaseUntil(t float64) {
	if len(st.releases) == 0 || st.releases[0].at > t+eps {
		return
	}
	batch := st.relScratch[:0]
	for len(st.releases) > 0 && st.releases[0].at <= t+eps {
		batch = append(batch, st.releases.pop())
	}
	// Insertion sort by placement sequence: release batches are small and
	// nearly ordered already.
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j-1].seq > batch[j].seq; j-- {
			batch[j-1], batch[j] = batch[j], batch[j-1]
		}
	}
	for _, r := range batch {
		st.used -= r.mem
	}
	st.relScratch = batch[:0]
}

// nextRelease returns the earliest pending memory release time, or +Inf.
func (st *state) nextRelease() float64 {
	if len(st.releases) == 0 {
		return math.Inf(1)
	}
	return st.releases[0].at
}

// fits reports whether mem additional memory fits right now.
func (st *state) fits(mem float64) bool { return st.used+mem <= st.capacity+eps }

// place schedules task t with its transfer starting at time start.
func (st *state) place(t core.Task, start float64) {
	compStart := start + t.Comm
	if st.tauComp > compStart {
		compStart = st.tauComp
	}
	end := compStart + t.Comp
	if st.schedule != nil {
		st.schedule.Append(core.Assignment{Task: t, CommStart: start, CompStart: compStart})
	}
	st.releases.push(release{at: end, mem: t.Mem, seq: st.relSeq})
	st.relSeq++
	st.used += t.Mem
	st.stats.Placed++
	if st.used > st.stats.PeakMemory {
		st.stats.PeakMemory = st.used
	}
	st.tauComm = start + t.Comm
	st.tauComp = end
	if end > st.span {
		st.span = end
	}
}

const eps = 1e-9

// errNoFit is only reachable with inconsistent state (checkFits guards the
// per-task requirement up front).
var errNoFit = fmt.Errorf("simulate: no remaining task can ever fit in memory")

func staticInto(st *state, tasks []core.Task, order []int) error {
	if len(order) != len(tasks) {
		return fmt.Errorf("simulate: order has %d entries for %d tasks", len(order), len(tasks))
	}
	for _, i := range order {
		t := tasks[i]
		start := st.tauComm
		st.releaseUntil(start)
		if !st.fits(t.Mem) {
			st.stats.MemStalls++
		}
		for !st.fits(t.Mem) {
			next := st.nextRelease()
			if math.IsInf(next, 1) {
				return errNoFit
			}
			if next > start {
				start = next
			}
			st.releaseUntil(start)
		}
		st.place(t, start)
	}
	return nil
}

// runSelection is the shared event loop. order is the scan order of the
// remaining tasks (nil means submission order); with an order, its head
// is preferred whenever it fits (corrections mode), otherwise every
// fitting task competes (pure dynamic mode).
func runSelection(st *state, b *planBatch, order []int, noIdleFilter bool) error {
	tasks := b.tasks
	if order != nil && len(order) != len(tasks) {
		return fmt.Errorf("simulate: order has %d entries for %d tasks", len(order), len(tasks))
	}
	followHead := order != nil
	sel := &st.sel
	sel.reset(b, order)
	now := st.tauComm
	for sel.n > 0 {
		if st.tauComm > now {
			now = st.tauComm
		}
		st.releaseUntil(now)
		if followHead {
			if h := sel.head(); st.fits(tasks[h].Mem) {
				st.place(tasks[h], now)
				sel.remove(h)
				continue
			}
		}
		st.stats.Picks++
		pick := sel.pick(st, now, noIdleFilter)
		if pick < 0 {
			next := st.nextRelease()
			if math.IsInf(next, 1) {
				return errNoFit
			}
			st.stats.MemStalls++
			now = next
			continue
		}
		st.place(tasks[pick], now)
		sel.remove(pick)
	}
	return nil
}

// selector is the per-run working set of dynamic selection over one
// batch. It reads the batch's criterion keys, communication times,
// memory requirements and sorted indexes from the plan, which it never
// writes, and owns only what a run changes: the remaining scan order
// with order-preserving tombstones, the alive flags and the cursors into
// the sorted indexes. Its own slices are reused across batches and runs.
type selector struct {
	// Borrowed from the plan batch; read-only.
	key  []float64 // criterion value per batch index
	comm []float64 // communication time per batch index
	mem  []float64 // memory requirement per batch index

	alive []bool // batch index -> still unscheduled

	rem     []int // remaining scan order; -1 marks a removed (tombstoned) entry
	remPos  []int // batch index -> its position in rem
	dead    int   // tombstones currently in rem
	headPos int   // first possibly-alive position in rem (corrections head)
	n       int   // remaining task count

	// sorted lists batch indices by (key descending, index ascending);
	// sortPtr advances monotonically past removed entries at the front.
	// It is nil on a coMono batch, whose picks go to the index first,
	// and when a key is NaN, which makes the comparator non-transitive.
	sorted  []int
	sortPtr int

	// memSorted lists batch indices by (memory, comm, index), all
	// ascending; memPtr advances past removed entries at the front, so
	// the smallest remaining requirement — the O(1) "nothing can fit"
	// stall check — is amortized O(1).
	memSorted []int
	memPtr    int

	// The indexed pick's working set, used only when the batch is
	// coMono. byComm, commPos, commAt and memAt are borrowed from the
	// plan batch. tree is a segment tree over byComm positions whose
	// leaves hold the alive tasks' keys, and next links each position to
	// the first alive one at or after it (a path-halving union-find,
	// with next[n] = n as the sentinel). Both are built on the batch's
	// first indexed pick, so a corrected batch whose head always fits
	// never pays for them.
	byComm, commPos []int
	commAt, memAt   []float64
	coMono          bool
	built           bool
	tree            []pickNode
	next            []int
}

// reset loads one plan batch into the selector. order is the scan order
// (nil means submission order).
func (sel *selector) reset(b *planBatch, order []int) {
	n := len(b.tasks)
	sel.key, sel.comm, sel.mem = b.key, b.comm, b.mem
	sel.sorted, sel.memSorted = b.sorted, b.memSorted
	sel.byComm, sel.commPos, sel.commAt, sel.memAt = b.byComm, b.commPos, b.commAt, b.memAt
	sel.coMono, sel.built = b.coMono, false
	sel.alive = growBools(sel.alive, n)
	sel.rem = growInts(sel.rem, n)
	sel.remPos = growInts(sel.remPos, n)
	for i := range sel.alive {
		sel.alive[i] = true
	}
	if order == nil {
		for i := range sel.rem {
			sel.rem[i] = i
			sel.remPos[i] = i
		}
	} else {
		for pos, i := range order {
			sel.rem[pos] = i
			sel.remPos[i] = pos
		}
	}
	sel.dead, sel.headPos, sel.n = 0, 0, n
	sel.sortPtr, sel.memPtr = 0, 0
}

// unload drops the selector's references into a plan, so a pooled state
// never keeps a finished plan alive.
func (sel *selector) unload() {
	sel.key, sel.comm, sel.mem = nil, nil, nil
	sel.sorted, sel.memSorted = nil, nil
	sel.byComm, sel.commPos, sel.commAt, sel.memAt = nil, nil, nil, nil
}

// head returns the first remaining batch index in scan order.
// Only valid while n > 0.
func (sel *selector) head() int {
	for sel.rem[sel.headPos] < 0 {
		sel.headPos++
	}
	return sel.rem[sel.headPos]
}

// remove tombstones batch index i, compacting the scan order (in place,
// order-preserving) once half of it is dead.
func (sel *selector) remove(i int) {
	sel.alive[i] = false
	sel.rem[sel.remPos[i]] = -1
	if sel.built {
		p := sel.commPos[i]
		sel.next[p] = p + 1
		sel.update(p)
	}
	sel.dead++
	sel.n--
	if sel.dead >= 16 && sel.dead > len(sel.rem)/2 {
		w := 0
		for _, j := range sel.rem {
			if j >= 0 {
				sel.rem[w] = j
				sel.remPos[j] = w
				w++
			}
		}
		sel.rem = sel.rem[:w]
		sel.dead, sel.headPos = 0, 0
	}
}

// minAliveMem returns the batch index of the remaining task with the
// smallest memory requirement (ties by communication time, then index),
// or -1; amortized O(1) over a batch.
func (sel *selector) minAliveMem() int {
	for sel.memPtr < len(sel.memSorted) {
		if i := sel.memSorted[sel.memPtr]; sel.alive[i] {
			return i
		}
		sel.memPtr++
	}
	return -1
}

// topFitting returns the two remaining batch indices with the largest
// keys among the tasks that fit right now, in (key descending, index
// ascending) order — exactly the candidate set the selection scan ranges
// over, since it skips non-fitting tasks. Only valid when sorted is set.
func (sel *selector) topFitting(st *state) (top, second int) {
	top, second = -1, -1
	for p := sel.sortPtr; p < len(sel.sorted); p++ {
		i := sel.sorted[p]
		if !sel.alive[i] {
			if p == sel.sortPtr {
				sel.sortPtr++ // permanently skip the dead prefix
			}
			continue
		}
		if !(st.used+sel.mem[i] <= st.capacity+eps) {
			continue
		}
		if top < 0 {
			top = i
		} else {
			return top, i
		}
	}
	return top, second
}

// pick returns the batch index of the task that fits at time now, induces
// minimum idle time on the processing unit, and maximises the criterion —
// or -1 if nothing fits. With noIdleFilter the idle pre-filter is skipped
// and the criterion alone decides.
//
// The selection rule is the reference kernel's running scan in remaining
// order with eps-tolerant comparisons — deliberately NOT a clean
// (idle, key) argmin, whose tie-breaks differ inside eps bands (see the
// eps-boundary cases in differential_test.go). Because memory state is
// fixed for the duration of one call, the scan's candidate set is
// exactly the remaining tasks that fit now, and three accelerations are
// provably outcome-identical to the full scan over that set:
//
//   - Indexed pick: on a coMono batch, pickIndexed answers in O(log n)
//     whenever the scan provably reduces to a clean argmin, and hands
//     the pick to the stall check and the scan otherwise.
//   - Stall check: float addition is monotone, so if the smallest
//     remaining requirement does not fit, nothing does — return -1
//     without scanning.
//   - Fast path, on a batch that is neither coMono nor holds a NaN key:
//     when the largest-key fitting task induces zero idle and every
//     other fitting key trails it by more than eps, no scan prefix can
//     hold the best slot against it (zero idle always passes the idle
//     branch; the strict key gap always passes the key branch) and
//     nothing after it can take the slot back (its idle cannot be
//     undercut below zero minus eps; its key cannot be beaten by more
//     than eps). The scan collapses without running.
func (sel *selector) pick(st *state, now float64, noIdleFilter bool) int {
	if sel.coMono {
		if i, ok := sel.pickIndexed(st, now, noIdleFilter); ok {
			return i
		}
	}
	if m := sel.minAliveMem(); m < 0 || !(st.used+sel.mem[m] <= st.capacity+eps) {
		st.stats.PickStalls++
		return -1
	}
	if sel.sorted != nil {
		top, second := sel.topFitting(st)
		if top < 0 {
			st.stats.PickStalls++
			return -1 // unreachable: the stall check found a fitting task
		}
		idle := 0.0
		if !noIdleFilter {
			if d := now + sel.comm[top] - st.tauComp; d > 0 {
				idle = d
			}
		}
		if idle == 0 && (second < 0 || sel.key[top] > sel.key[second]+eps) {
			st.stats.PickFast++
			return top
		}
	}
	best, scanned := -1, 0
	bestIdle, bestKey := math.Inf(1), math.Inf(-1)
	for _, i := range sel.rem {
		if i < 0 {
			continue
		}
		scanned++
		if !(st.used+sel.mem[i] <= st.capacity+eps) {
			continue
		}
		idle := 0.0
		if !noIdleFilter {
			if d := now + sel.comm[i] - st.tauComp; d > 0 {
				idle = d
			}
		}
		key := sel.key[i]
		switch {
		case idle < bestIdle-eps,
			idle <= bestIdle+eps && key > bestKey+eps:
			best, bestIdle, bestKey = i, idle, key
		}
	}
	st.stats.PickFull++
	st.stats.Scanned += scanned
	return best
}

// pickIndexed answers a pick from the communication-ascending index of
// a coMono batch, or reports ok = false when it cannot prove that the
// scan would return the same task; the caller then runs the scan.
//
// Along byComm, memory is non-decreasing, and so is the induced idle
// max(0, now+comm-tauComp): float addition and subtraction are
// monotone. The fitting tasks therefore occupy a prefix [0, q) of the
// positions, the alive ones start at f, and the alive fitting tasks
// with the least idle I* = idle(f) lie in a run [f, g). One tree query
// over [f, g) returns the largest key K* there, the earliest remaining
// position holding it (the candidate x*), and the largest key K2
// strictly below K*. x* is accepted only under two guards:
//
//	(a) K2 is absent or K* > K2+eps;
//	(b) the first alive position h in [g, q), if any, has idle I2 with
//	    I2 > I*+eps and I* < I2-eps.
//
// Proof that the scan returns x*. The scan's running state is always
// some candidate's (idle, key) pair, or (+Inf, -Inf) before the first.
// When the scan reaches x*, that state is one of:
//   - (+Inf, -Inf): I* < +Inf-eps, so x* takes the slot.
//   - a candidate at or after h, with idle I >= I2: I* < I2-eps <= I-eps,
//     so x* takes the slot on the idle branch.
//   - a candidate in [f, g), scanned before x*, so with a key k < K*
//     (x* is the earliest holding K*): then k <= K2, I* <= I*+eps and
//     K* > K2+eps >= k+eps, so x* takes the slot on the key branch.
//
// Once x* holds the slot, no later candidate fires either branch:
//   - one in [f, g) has idle I* and key k <= K*: I* < I*-eps and
//     k > K*+eps are both false.
//   - one at or after h has idle I >= I2 > I*+eps: it is neither below
//     I*-eps nor within I*+eps.
//
// The two forms in (b) are different tests under rounding, and the
// proof needs each: I* < I2-eps lets x* take the slot from a costlier
// candidate scanned before it, and I2 > I*+eps stops one scanned after
// it. NoIdleFilter makes every idle zero, so [f, g) is the whole
// fitting prefix and (b) holds vacuously.
func (sel *selector) pickIndexed(st *state, now float64, noIdleFilter bool) (int, bool) {
	if !sel.built {
		sel.build()
	}
	f := sel.firstAlive(0)
	if !(st.used+sel.memAt[f] <= st.capacity+eps) {
		st.stats.PickStalls++
		return -1, true
	}
	lo, hi := f+1, len(sel.byComm)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if st.used+sel.memAt[m] <= st.capacity+eps {
			lo = m + 1
		} else {
			hi = m
		}
	}
	q, g := lo, lo
	// The least-idle run is often the whole fitting prefix (every task
	// waits for the processing unit) or a single task; test the first
	// case, then gallop from f.
	if idle := sel.idleAt(st, now, f); !noIdleFilter && sel.idleAt(st, now, q-1) > idle {
		lo, hi = f+1, f+1
		for step := 1; hi < q && sel.idleAt(st, now, hi) <= idle; step *= 2 {
			lo, hi = hi+1, min(hi+step, q)
		}
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if sel.idleAt(st, now, m) <= idle {
				lo = m + 1
			} else {
				hi = m
			}
		}
		g = lo
		if h := sel.firstAlive(g); h < q {
			if idle2 := sel.idleAt(st, now, h); !(idle2 > idle+eps && idle < idle2-eps) {
				return 0, false
			}
		}
	}
	if sel.firstAlive(f+1) >= g {
		st.stats.PickIndexed++ // f alone: K* is its key and K2 is absent
		return sel.byComm[f], true
	}
	// The root summarises every alive task; when its winner lies in
	// [f, g) it wins there too, and its K2 bounds the range's.
	best := sel.tree[1]
	if p := sel.commPos[best.idx]; p >= g {
		best = sel.query(f, g)
	}
	if !(best.key > best.key2+eps) {
		return 0, false
	}
	st.stats.PickIndexed++
	return int(best.idx), true
}

// idleAt is the idle time the task at byComm position p would induce,
// in the scan's exact expression.
func (sel *selector) idleAt(st *state, now float64, p int) float64 {
	if d := now + sel.commAt[p] - st.tauComp; d > 0 {
		return d
	}
	return 0
}

// pickNode summarises the alive tasks under a tree node: the largest
// key, the earliest remaining position (rank) holding it and that
// task's batch index, and the largest key strictly below it. An empty
// node has both keys -Inf and rank MaxInt32, so it loses every merge.
type pickNode struct {
	key, key2 float64
	rank, idx int32
}

var emptyPickNode = pickNode{key: math.Inf(-1), key2: math.Inf(-1), rank: math.MaxInt32, idx: -1}

func mergePick(a, b pickNode) pickNode {
	if b.key > a.key {
		a, b = b, a
	}
	if b.key < a.key {
		if b.key > a.key2 {
			a.key2 = b.key
		}
		return a
	}
	if b.rank < a.rank {
		a.rank, a.idx = b.rank, b.idx
	}
	if b.key2 > a.key2 {
		a.key2 = b.key2
	}
	return a
}

// build fills the tree and the alive links from the alive flags. Ranks
// are the tasks' current positions in the remaining scan order;
// compaction preserves that order, so they stay comparable for the rest
// of the batch.
func (sel *selector) build() {
	n := len(sel.byComm)
	sel.tree = growPickNodes(sel.tree, 2*n)
	sel.next = growInts(sel.next, n+1)
	for p, i := range sel.byComm {
		if sel.alive[i] {
			sel.tree[n+p] = pickNode{key: sel.key[i], key2: math.Inf(-1), rank: int32(sel.remPos[i]), idx: int32(i)}
			sel.next[p] = p
		} else {
			sel.tree[n+p] = emptyPickNode
			sel.next[p] = p + 1
		}
	}
	sel.next[n] = n
	for v := n - 1; v > 0; v-- {
		sel.tree[v] = mergePick(sel.tree[2*v], sel.tree[2*v+1])
	}
	sel.built = true
}

// update empties the tree leaf at byComm position p, whose task was
// placed, and recomputes its ancestors.
func (sel *selector) update(p int) {
	v := p + len(sel.byComm)
	sel.tree[v] = emptyPickNode
	for v > 1 {
		v >>= 1
		nd := mergePick(sel.tree[2*v], sel.tree[2*v+1])
		if nd == sel.tree[v] {
			return // every ancestor is unchanged too
		}
		sel.tree[v] = nd
	}
}

// query summarises the alive tasks at byComm positions [l, r). The
// merge is commutative, so the bottom-up walk needs no power-of-two
// tree.
func (sel *selector) query(l, r int) pickNode {
	n := len(sel.byComm)
	res := emptyPickNode
	for l, r = l+n, r+n; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			res = mergePick(res, sel.tree[l])
			l++
		}
		if r&1 == 1 {
			r--
			res = mergePick(res, sel.tree[r])
		}
	}
	return res
}

// firstAlive returns the first alive byComm position at or after p, or
// n if there is none, halving the paths it walks.
func (sel *selector) firstAlive(p int) int {
	for sel.next[p] != p {
		sel.next[p] = sel.next[sel.next[p]]
		p = sel.next[p]
	}
	return p
}

// keySorter orders batch indices by key descending, index ascending — a
// concrete sort.Interface so a plan's sort allocates nothing per batch.
type keySorter struct {
	key []float64
	idx []int
}

func (s *keySorter) Len() int { return len(s.idx) }
func (s *keySorter) Less(a, b int) bool {
	ka, kb := s.key[s.idx[a]], s.key[s.idx[b]]
	if ka != kb {
		return ka > kb
	}
	return s.idx[a] < s.idx[b]
}
func (s *keySorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// memSorter orders batch indices by memory, then communication time,
// then index, all ascending.
type memSorter struct {
	mem, comm []float64
	idx       []int
}

func (s *memSorter) Len() int { return len(s.idx) }
func (s *memSorter) Less(a, b int) bool {
	ia, ib := s.idx[a], s.idx[b]
	if ma, mb := s.mem[ia], s.mem[ib]; ma != mb {
		return ma < mb
	}
	if ca, cb := s.comm[ia], s.comm[ib]; ca != cb {
		return ca < cb
	}
	return ia < ib
}
func (s *memSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

func growPickNodes(s []pickNode, n int) []pickNode {
	if cap(s) < n {
		return make([]pickNode, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
