package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"transched/internal/obs"
)

func newTestAdmission(maxConcurrent, maxQueue int) *admission {
	reg := obs.NewRegistry()
	return newAdmission(maxConcurrent, maxQueue, reg.Gauge("q"), reg.Gauge("inflight"))
}

func TestAdmissionLimitsConcurrency(t *testing.T) {
	a := newTestAdmission(2, 5)
	ctx := context.Background()
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	// Both slots busy: a third caller waits until its deadline.
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := a.Acquire(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third Acquire = %v, want DeadlineExceeded", err)
	}
	a.Release()
	if err := a.Acquire(ctx); err != nil {
		t.Fatalf("after Release: %v", err)
	}
	a.Release()
	a.Release()
	if got := a.InFlight(); got != 0 {
		t.Errorf("InFlight after releases = %d", got)
	}
}

// TestAdmissionQueueBound: with the queue full, the next caller is shed
// immediately with errOverloaded rather than waiting.
func TestAdmissionQueueBound(t *testing.T) {
	a := newTestAdmission(1, 1)
	ctx := context.Background()
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- a.Acquire(ctx) }()
	for a.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	// Queue (length 1) is occupied: shed, not enqueue.
	if err := a.Acquire(ctx); !errors.Is(err, errOverloaded) {
		t.Fatalf("over-queue Acquire = %v, want errOverloaded", err)
	}
	// The shed attempt must not have corrupted the waiter count.
	if got := a.Waiting(); got != 1 {
		t.Errorf("Waiting after shed = %d, want 1", got)
	}
	a.Release()
	if err := <-waiterErr; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.Release()
}

// TestAdmissionExpiredContext: a dead context never takes a slot, even
// when one is free — the deterministic-timeout contract.
func TestAdmissionExpiredContext(t *testing.T) {
	a := newTestAdmission(2, 2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.Acquire(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire with dead context = %v, want context.Canceled", err)
	}
	if got := a.InFlight(); got != 0 {
		t.Errorf("dead context occupied a slot: InFlight = %d", got)
	}
}

// TestAdmissionQueuedCallerTimesOut: a caller parked in the queue whose
// deadline expires leaves cleanly without a slot.
func TestAdmissionQueuedCallerTimesOut(t *testing.T) {
	a := newTestAdmission(1, 4)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := a.Acquire(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire = %v, want DeadlineExceeded", err)
	}
	if got := a.Waiting(); got != 0 {
		t.Errorf("Waiting after timeout = %d, want 0", got)
	}
	a.Release()
	// The released slot is still usable.
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Release()
}

func TestAdmissionDefaults(t *testing.T) {
	a := newTestAdmission(0, -3) // floor to 1 slot, 0 queue
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(context.Background()); !errors.Is(err, errOverloaded) {
		t.Fatalf("zero queue should shed immediately, got %v", err)
	}
	a.Release()
}

// TestAdmissionDepthGaugeStorm is the queue-depth regression test: the
// gauge is moved by ±1 per queue transition, so after a storm of
// waiters — some served, some timed out, some shed — it must read
// exactly zero. The old read-then-Set scheme let a stale load be
// published last, leaving the gauge stuck nonzero at idle.
func TestAdmissionDepthGaugeStorm(t *testing.T) {
	reg := obs.NewRegistry()
	depth := reg.Gauge("serve_queue_depth")
	inflight := reg.Gauge("serve_inflight_solves")
	a := newAdmission(2, 64, depth, inflight)

	const workers = 32
	const rounds = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx := context.Background()
				if w%4 == 0 {
					// A slice of the storm runs on a tight deadline so
					// the timeout exit path gets exercised too.
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(r%3)*time.Millisecond)
					err := a.Acquire(ctx)
					cancel()
					if err == nil {
						a.Release()
					}
					continue
				}
				if err := a.Acquire(ctx); err == nil {
					a.Release()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := a.Waiting(); got != 0 {
		t.Errorf("Waiting after storm = %d, want 0", got)
	}
	if got := a.InFlight(); got != 0 {
		t.Errorf("InFlight after storm = %d, want 0", got)
	}
	if got := depth.Value(); got != 0 {
		t.Errorf("serve_queue_depth after storm = %v, want exactly 0", got)
	}
	// Same contract for the occupied-slot gauge, which used to be
	// published by read-then-Set at the call sites:
	// with the ±1 Adds inside Acquire/Release it must also settle on
	// exactly zero once the storm drains.
	if got := inflight.Value(); got != 0 {
		t.Errorf("serve_inflight_solves after storm = %v, want exactly 0", got)
	}
}

// TestAdmissionBeginDrain: draining sheds parked waiters with
// errDraining, rejects future Acquires the same way, and leaves held
// slots untouched so in-flight work completes.
func TestAdmissionBeginDrain(t *testing.T) {
	a := newTestAdmission(1, 8)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- a.Acquire(context.Background()) }()
	for a.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}

	a.BeginDrain()
	if err := <-waiterErr; !errors.Is(err, errDraining) {
		t.Fatalf("parked waiter after BeginDrain = %v, want errDraining", err)
	}
	if err := a.Acquire(context.Background()); !errors.Is(err, errDraining) {
		t.Fatalf("post-drain Acquire = %v, want errDraining", err)
	}
	a.BeginDrain() // idempotent

	// The in-flight holder is unaffected and can still release.
	if got := a.InFlight(); got != 1 {
		t.Errorf("InFlight during drain = %d, want 1", got)
	}
	a.Release()
	if got := a.Waiting(); got != 0 {
		t.Errorf("Waiting after drain = %d, want 0", got)
	}
}
