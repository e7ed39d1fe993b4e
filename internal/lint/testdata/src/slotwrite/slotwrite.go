// Package slotwrite is testdata: appends and compound accumulation into
// captured state inside go closures are flagged; index-addressed slot
// writes, closure-local state and annotated mutex-guarded accumulation
// are not.
package slotwrite

import "sync"

func flaggedAppend(items []int) []int {
	var results []int
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			results = append(results, it*it) // want `append to captured "results" inside go closure`
		}(it)
	}
	wg.Wait()
	return results
}

func flaggedCounter(items []int) int {
	n := 0
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n++ // want `\+\+ of captured "n" inside go closure`
		}()
	}
	wg.Wait()
	return n
}

func flaggedFloatAccum(items []float64) float64 {
	sum := 0.0
	var wg sync.WaitGroup
	for _, v := range items {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			sum += v // want `\+= to captured "sum" inside go closure`
		}(v)
	}
	wg.Wait()
	return sum
}

func slotWritesOK(items []int) []int {
	// The blessed pattern: preallocated, index-addressed slots, each
	// goroutine writing only the slot it owns (internal/par's discipline).
	results := make([]int, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i, it int) {
			defer wg.Done()
			results[i] = it * it
		}(i, it)
	}
	wg.Wait()
	return results
}

func localStateOK() {
	go func() {
		var locals []int // closure-local: no sharing, no race
		for i := 0; i < 4; i++ {
			locals = append(locals, i)
			i := i
			_ = i
		}
	}()
}

func annotatedMutexOK(items []int) int {
	n := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			mu.Lock()
			n += it //transched:allow-slotwrite guarded by mu; result independent of order
			mu.Unlock()
		}(it)
	}
	wg.Wait()
	return n
}
