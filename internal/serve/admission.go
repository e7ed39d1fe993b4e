package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"transched/internal/obs"
)

// errOverloaded reports that the wait queue is full; the server maps it
// to 429 Too Many Requests with a Retry-After hint.
var errOverloaded = errors.New("serve: overloaded: wait queue full")

// errDraining reports that the server began draining while the caller
// was waiting for a solver slot; the server maps it to 503 Service
// Unavailable with a Retry-After hint. Shedding parked waiters promptly
// is what lets a SIGTERM drain finish in seconds instead of solving a
// whole queue of NP-complete instances first.
var errDraining = errors.New("serve: draining: queued request shed")

// admission bounds the solver: at most maxConcurrent solves run at
// once, at most maxQueue callers wait for a slot, and a waiting
// caller's context deadline still applies (an expired request never
// occupies a solver). Everyone past that is shed immediately — the
// paper's instances are NP-complete, so letting a backlog grow without
// bound would turn one slow burst into minutes of queueing.
type admission struct {
	slots    chan struct{} // buffered; a token in the channel is a busy slot
	maxQueue int64
	waiting  atomic.Int64
	depth    *obs.Gauge // queue-depth gauge, moved by ±1 with each queue transition
	inflight *obs.Gauge // occupied-slot gauge, moved by ±1 with each slot take/release

	drainOnce sync.Once
	drainC    chan struct{} // closed by BeginDrain; releases parked waiters
}

func newAdmission(maxConcurrent, maxQueue int, depth, inflight *obs.Gauge) *admission {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
		depth:    depth,
		inflight: inflight,
		drainC:   make(chan struct{}),
	}
}

// Acquire takes a solver slot, waiting in the bounded queue if all are
// busy. It returns errOverloaded when the queue is full, errDraining
// when the server starts draining while the caller waits, and ctx.Err()
// when the caller's deadline expires first. A nil error means the
// caller holds a slot and must Release it.
//
// The depth gauge is moved by exactly ±1 with each successful queue
// entry and exit (obs.Gauge.Add), never recomputed from a separate
// load: the old Add-then-Set scheme let a goroutine publish a stale
// reading after a newer one, leaving serve_queue_depth stuck nonzero at
// idle. A shed caller enters and leaves the waiting count before the
// gauge moves, so sheds never perturb it.
func (a *admission) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-a.drainC:
		return errDraining
	default:
	}
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		return nil
	default:
	}
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		return errOverloaded
	}
	a.depth.Add(1)
	defer func() {
		a.waiting.Add(-1)
		a.depth.Add(-1)
	}()
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		return nil
	case <-a.drainC:
		return errDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BeginDrain sheds every caller parked in the wait queue (they return
// errDraining) and makes future Acquires fail the same way. Slots
// already held are unaffected: in-flight solves run to completion.
// Idempotent.
func (a *admission) BeginDrain() {
	a.drainOnce.Do(func() { close(a.drainC) })
}

// Release frees a slot taken by a successful Acquire.
//
// The inflight gauge moves by exactly ±1 with each slot transition, in
// here rather than at the call site: publishing Set(len(a.slots))
// around each solve lets two goroutines interleaving read-then-Set
// publish a stale count that leaves serve_inflight_solves nonzero at
// idle (the same race the depth gauge's comment on Acquire describes —
// and the one the gaugecas analyzer rejects outright).
func (a *admission) Release() {
	<-a.slots
	a.inflight.Add(-1)
}

// InFlight returns the number of occupied solver slots.
func (a *admission) InFlight() int { return len(a.slots) }

// Waiting returns the current wait-queue depth.
func (a *admission) Waiting() int64 { return a.waiting.Load() }
