// Package par provides the deterministic fan-out primitive shared by the
// experiment drivers and the solver portfolios (transched.Solve,
// rts.Auto, the parallel branch and bound): run n independent jobs on a
// bounded pool, with each job writing only to slots owned by its index.
// Reducing the slots serially afterwards — in fixed index order — makes
// the parallel result bit-identical to the serial one, the contract the
// slotwrite analyzer enforces (LINTING.md).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachIndex runs fn(0) … fn(n-1) on up to workers goroutines and
// returns when all calls have completed. workers <= 0 means
// runtime.GOMAXPROCS(0); workers == 1 runs inline with no goroutines,
// which is the reference serial path. Indices are handed out atomically;
// fn must write only to slots owned by its index.
//
// Jobs have no error fast-path: portfolio callers record per-candidate
// errors in their own slots and decide what to surface during the serial
// reduce, so every index always runs.
func ForEachIndex(workers, n int, fn func(i int)) {
	_ = ForEachIndexErr(workers, n, func(_, i int) error {
		fn(i)
		return nil
	})
}

// ForEachIndexErr is ForEachIndex for jobs that can fail, with the
// 0-based pool worker id passed to fn alongside the index (the serial
// path is worker 0) — the hook the sweep tracer uses to put each cell
// span on its worker's track.
//
// On error the remaining indices are cancelled (in-flight calls run to
// completion) and the error with the lowest index is returned. Indices
// are handed out in increasing order, so every index below a failing one
// has already started and runs to completion: a failing job surfaces the
// same error at every worker count.
func ForEachIndexErr(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		cancelled atomic.Bool
		mu        sync.Mutex
		firstErr  error
		errIdx    int
		wg        sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for !cancelled.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					cancelled.Store(true)
					mu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
