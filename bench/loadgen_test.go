package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once must charge the stall to every request
// queued behind it: timed from its due time, the next request waits out
// the stall, although timed from when it was sent (as cmd/transchedbench
// does) it looks as fast as any other.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate    = 200.0 // one request due every 5ms
		n       = 20
		stallAt = 4
		stall   = 100 * time.Millisecond
	)
	var served, inflight, maxInflight atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for m := maxInflight.Load(); cur > m && !maxInflight.CompareAndSwap(m, cur); m = maxInflight.Load() {
		}
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	samples := openLoop(rate, n, 1, func(_, _ int) error {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	if got := served.Load(); got != n {
		t.Fatalf("server saw %d requests, want %d", got, n)
	}
	if m := maxInflight.Load(); m > 1 {
		t.Fatalf("%d requests in flight at once from one connection", m)
	}
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	next := samples[stallAt+1]
	if got := next.latency(); got < stall*8/10 {
		t.Errorf("request queued behind the stall: latency from due time %v, want at least %v", got, stall*8/10)
	}
	if got := next.done - next.sent; got > stall/2 {
		t.Errorf("request queued behind the stall: send-time latency %v, want it to hide the stall", got)
	}
	if got := next.late(); got < stall/2 {
		t.Errorf("request queued behind the stall left the generator %v late, want the stall to show", got)
	}
	st := summarize(samples)
	if st.p99 < stall*8/10 {
		t.Errorf("p99 %v does not show the stall", st.p99)
	}
}
