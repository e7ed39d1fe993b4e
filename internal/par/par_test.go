package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachIndexVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100} {
			counts := make([]int32, n)
			ForEachIndex(workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachIndexSlotResultsMatchSerial(t *testing.T) {
	const n = 50
	serial := make([]int, n)
	ForEachIndex(1, n, func(i int) { serial[i] = i * i })
	parallel := make([]int, n)
	ForEachIndex(0, n, func(i int) { parallel[i] = i * i })
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestForEachIndexZeroAndNegative(t *testing.T) {
	called := false
	ForEachIndex(4, 0, func(i int) { called = true })
	ForEachIndex(4, -3, func(i int) { called = true })
	if called {
		t.Fatal("fn called for n <= 0")
	}
}

// TestForEachIndexCoversAll: every index is visited exactly once, at
// every worker count including the inline serial path and the
// all-cores default.
func TestForEachIndexCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 100} {
		const n = 100
		var visits [n]atomic.Int32
		if err := ForEachIndexErr(workers, n, func(_, i int) error {
			visits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForEachIndexCancelsOnError: one failing unit cancels the
// remaining work (in-flight units finish, queued ones never start) and
// its error surfaces.
func TestForEachIndexCancelsOnError(t *testing.T) {
	const n, workers = 100, 4
	boom := fmt.Errorf("boom")
	var started atomic.Int32
	begin := time.Now()
	err := ForEachIndexErr(workers, n, func(_, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	elapsed := time.Since(begin)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// Without cancellation the pool would run all 100 units
	// (~99/4 × 50ms ≈ 1.2s); with it only the units already in flight
	// when unit 0 failed complete.
	if got := started.Load(); got > 2*workers {
		t.Errorf("%d units started after the failure (want ≤ %d)", got, 2*workers)
	}
	if elapsed > time.Second {
		t.Errorf("pool took %v to cancel", elapsed)
	}
}

// TestForEachIndexErrLowestIndexAndWorkerIDs: with several failing
// indices the lowest one's error surfaces at every worker count, even
// when it fails last, and fn only ever sees worker ids inside the pool.
func TestForEachIndexErrLowestIndexAndWorkerIDs(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 4, 16} {
		var badWorker atomic.Bool
		err := ForEachIndexErr(workers, n, func(w, i int) error {
			if w < 0 || w >= workers {
				badWorker.Store(true)
			}
			if i == 30 {
				// Fail last in time, after later indices have failed
				// and cancelled the pool.
				time.Sleep(20 * time.Millisecond)
			}
			if i >= 30 && i%7 == 2 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 30" {
			t.Fatalf("workers=%d: err = %v, want fail 30", workers, err)
		}
		if badWorker.Load() {
			t.Fatalf("workers=%d: worker id outside [0, %d)", workers, workers)
		}
	}
}
