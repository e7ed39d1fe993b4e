package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"transched/internal/stats"
)

// sample is one open-loop request: when it was due, sent and answered,
// as offsets from the start of its step, and whether it failed.
type sample struct {
	due, sent, done time.Duration
	err             error
}

// latency runs from when the request was due, not from when it was sent,
// so a stall is charged to every request queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how long after its due time the request left the generator.
func (s sample) late() time.Duration { return s.sent - s.due }

// openLoop offers n requests at rate per second. Request i is due at
// i/rate after the start whatever happened to earlier requests; conns
// senders (one connection each) take requests in order, so when every
// sender is busy the next request waits in the generator and that wait
// counts in its latency. At a rate of +Inf every request is due at once:
// a closed loop in which each connection sends its next request when its
// last returns. It returns when every request has completed.
func openLoop(rate float64, n, conns int, send func(conn, i int) error) []sample {
	out := make([]sample, n)
	interval := float64(time.Second) / rate
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * interval)
				for wait := due - time.Since(start); wait > 0; wait = due - time.Since(start) {
					// The runtime's timers round sub-millisecond sleeps up to
					// a millisecond, which would bill the generator's own
					// lateness to the system; a nanosleep on the sender's
					// thread wakes within the kernel's timer slack. An
					// interrupted sleep is retried by the loop.
					ts := syscall.NsecToTimespec(int64(wait))
					_ = syscall.Nanosleep(&ts, nil)
				}
				sent := time.Since(start)
				err := send(c, i)
				out[i] = sample{due: due, sent: sent, done: time.Since(start), err: err}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// stepStats summarises one open-loop step.
type stepStats struct {
	n, failed int
	// p50 and p99 are latencies from the due time; a failed request
	// counts as missing every latency limit.
	p50, p99 time.Duration
	// lateP99 is the generator's own lateness: how long after their due
	// time the slowest 1 % of requests were sent.
	lateP99 time.Duration
}

func summarize(samples []sample) stepStats {
	st := stepStats{n: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.latency())
		if s.err != nil {
			st.failed++
			lat[i] = float64(1<<63 - 1)
		}
		late[i] = float64(s.late())
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	st.p50 = time.Duration(stats.NearestRank(lat, 0.50))
	st.p99 = time.Duration(stats.NearestRank(lat, 0.99))
	st.lateP99 = time.Duration(stats.NearestRank(late, 0.99))
	return st
}
