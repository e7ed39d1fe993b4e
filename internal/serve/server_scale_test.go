package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"transched"
	"transched/internal/obs"
	"transched/internal/serve/store"
)

// TestServeWarmRestartRetainsHitRate is the disk-tier acceptance test:
// a daemon restarted over the same cache directory answers previously
// solved instances from the store, retaining >= 90% of its hit rate
// even with one blob corrupted on disk — which costs exactly one
// recompute, never a crash or a wrong answer.
func TestServeWarmRestartRetainsHitRate(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	texts := make([]string, n)
	for i := 0; i < n; i++ {
		texts[i] = genTraceText(t, 300+int64(i), 12)
	}
	wants := make([][]byte, n)
	for i := 0; i < n; i++ {
		wants[i] = referenceBody(t, texts[i], transched.SolveOptions{CapacityMultiplier: 1.5})
	}

	// First life: solve everything, write-through to disk.
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := testConfig()
	cfg1.Store = st1
	s1 := New(cfg1)
	h1 := s1.Handler()
	digests := make([]string, n)
	for i := 0; i < n; i++ {
		rec := postRaw(h1, "/solve?capacity=1.5", texts[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("first life, request %d: %d: %s", i, rec.Code, rec.Body.String())
		}
		digests[i] = rec.Header().Get("X-Transched-Digest")
	}
	if st1.Len() != n {
		t.Fatalf("store holds %d blobs after first life, want %d", st1.Len(), n)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart, plus bit rot on one blob while the daemon was down.
	if err := os.WriteFile(filepath.Join(dir, digests[0]+".blob"), []byte("rotten bits"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := Config{Registry: obs.NewRegistry(), Store: st2}
	s2 := New(cfg2)
	h2 := s2.Handler()

	// Second life: replay the same instances against a cold memory LRU.
	for i := 0; i < n; i++ {
		rec := postRaw(h2, "/solve?capacity=1.5", texts[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("second life, request %d: %d: %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), wants[i]) {
			t.Errorf("second life, request %d: body differs from serial solve", i)
		}
	}

	reg := s2.cfg.Registry
	hits := reg.Counter("serve_cache_hits_total").Value()
	requests := reg.Counter("serve_requests_total").Value()
	if rate := float64(hits) / float64(requests); rate < 0.9 {
		t.Errorf("warm-restart hit rate = %.2f (%d/%d), want >= 0.90", rate, hits, requests)
	}
	if got := reg.Counter("serve_store_hits_total").Value(); got != n-1 {
		t.Errorf("store hits = %d, want %d (all but the corrupted blob)", got, n-1)
	}
	if got := reg.Counter("serve_cache_misses_total").Value(); got != 1 {
		t.Errorf("misses = %d, want 1 (the corrupted blob recomputes)", got)
	}
	// The recompute re-persisted the corrupted entry.
	if got, ok := st2.Get(digests[0]); !ok || !bytes.Equal(got, wants[0]) {
		t.Errorf("corrupted entry not healed by recompute: ok=%v", ok)
	}
}

// TestServeDrainShedsQueuedWaiters is the graceful-drain coverage: at
// drain time a request parked in the admission
// queue is shed promptly with 503 + Retry-After, the in-flight solve
// completes with 200, and Drain returns cleanly.
func TestServeDrainShedsQueuedWaiters(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 4
	cfg.RetryAfter = 2 * time.Second
	s := New(cfg)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.onSolve = func() {
		once.Do(func() { close(started) })
		<-release
	}
	h := s.Handler()

	blockerText := genTraceText(t, 401, 20)
	blockerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { blockerDone <- postRaw(h, "/solve", blockerText) }()
	<-started

	// A distinct request parks in the wait queue behind the blocker.
	waiterDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiterDone <- postRaw(h, "/solve", genTraceText(t, 402, 20)) }()
	for s.adm.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()

	rec := <-waiterDone
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued waiter at drain: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("queued waiter Retry-After = %q, want \"2\"", got)
	}
	if got := s.cfg.Registry.Counter("serve_shed_total").Value(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	// The in-flight solve is unaffected and completes.
	close(release)
	if rec := <-blockerDone; rec.Code != http.StatusOK {
		t.Fatalf("in-flight solve during drain: %d: %s", rec.Code, rec.Body.String())
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if got := s.cfg.Registry.Gauge("serve_queue_depth").Value(); got != 0 {
		t.Errorf("serve_queue_depth after drain = %v, want 0", got)
	}
}

// TestServeMetricInvariantUnderErrors pins the serve accounting
// identity: hits + misses + shed + timeouts + errors == requests, with
// every terminal path counted exactly once — including concurrent
// requests that join a FAILING computation, which the fixed cache
// reports as misses-with-error, never hits (serve_cache_hits used to
// count them, breaking the identity on every error burst).
func TestServeMetricInvariantUnderErrors(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()

	// An error burst: identical unschedulable instances (capacity below
	// the largest task), concurrently. Whatever mix of flight-joins and
	// fresh computes the scheduler produces, every one is an error and
	// NONE is a hit.
	const burst = 6
	badText := genTraceText(t, 501, 10)
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = postRaw(h, "/solve?capacity=0.5", badText).Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusUnprocessableEntity {
			t.Errorf("burst request %d: status %d, want 422", i, code)
		}
	}
	if got := s.cfg.Registry.Counter("serve_cache_hits_total").Value(); got != 0 {
		t.Errorf("hits after pure-error burst = %d, want 0 (failed flight joins are misses)", got)
	}

	// A healthy group: one miss, three hits.
	okText := genTraceText(t, 502, 12)
	for i := 0; i < 4; i++ {
		if rec := postRaw(h, "/solve", okText); rec.Code != http.StatusOK {
			t.Fatalf("healthy request %d: %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	// One timeout: a request whose context is already dead.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve",
		bytes.NewReader([]byte(genTraceText(t, 503, 10)))).WithContext(ctx))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: %d", rec.Code)
	}
	// One method error.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/solve", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: %d", rec.Code)
	}
	// One drain shed.
	s.BeginDrain()
	if rec := postRaw(h, "/solve", okText); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d", rec.Code)
	}

	reg := s.cfg.Registry
	requests := reg.Counter("serve_requests_total").Value()
	hits := reg.Counter("serve_cache_hits_total").Value()
	misses := reg.Counter("serve_cache_misses_total").Value()
	shed := reg.Counter("serve_shed_total").Value()
	timeouts := reg.Counter("serve_timeouts_total").Value()
	errs := reg.Counter("serve_errors_total").Value()
	if hits+misses+shed+timeouts+errs != requests {
		t.Errorf("accounting identity broken: hits %d + misses %d + shed %d + timeouts %d + errors %d != requests %d",
			hits, misses, shed, timeouts, errs, requests)
	}
	if hits != 3 || misses != 1 || shed != 1 || timeouts != 1 || errs != burst+1 {
		t.Errorf("counters = hits %d misses %d shed %d timeouts %d errs %d; want 3/1/1/1/%d",
			hits, misses, shed, timeouts, errs, burst+1)
	}
}
