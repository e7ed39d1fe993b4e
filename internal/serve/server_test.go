package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"transched"
	"transched/internal/obs"
)

// testConfig returns a config with an isolated registry so counter
// assertions never see another test's traffic.
func testConfig() Config {
	return Config{Registry: obs.NewRegistry()}
}

// genTraceText renders a generated trace in the v1 wire format; seed
// varies the instance (and therefore the digest).
func genTraceText(t testing.TB, seed int64, tasks int) string {
	t.Helper()
	traces, err := transched.GenerateTraces("HF", transched.Cascade(),
		transched.TraceConfig{Seed: seed, Processes: 1, MinTasks: tasks, MaxTasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := transched.WriteTrace(&sb, traces[0]); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// referenceBody computes the expected response bytes the serial path
// (the facade, i.e. what cmd/transched prints from) produces for a
// trace + options.
func referenceBody(t testing.TB, traceText string, opts transched.SolveOptions) []byte {
	t.Helper()
	tr, err := transched.ReadTrace(strings.NewReader(traceText))
	if err != nil {
		t.Fatal(err)
	}
	res, err := transched.Solve(context.Background(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(buildResponse(res))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postRaw drives the handler with a raw-trace POST and returns the
// recorder.
func postRaw(h http.Handler, target, body string) *httptest.ResponseRecorder {
	return post(h, target, "", body)
}

// post drives the handler with one POST of body under contentType
// (none when empty).
func post(h http.Handler, target, contentType, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// TestServeSolveMatchesSerialResult: the daemon's answer for a single
// request is byte-identical to the serial facade solve the CLI runs.
func TestServeSolveMatchesSerialResult(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	text := genTraceText(t, 11, 20)

	rec := postRaw(h, "/solve?heuristic=OOLCMR&capacity=1.5", text)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	want := referenceBody(t, text, transched.SolveOptions{CapacityMultiplier: 1.5, Heuristic: "OOLCMR"})
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("daemon response differs from serial solve:\ndaemon: %s\nserial: %s", rec.Body.Bytes(), want)
	}
	if got := rec.Header().Get("X-Transched-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q", got)
	}
	if got := rec.Header().Get("X-Transched-Digest"); len(got) != 64 {
		t.Errorf("digest header = %q", got)
	}

	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Best.Heuristic != "OOLCMR" || resp.Best.Makespan <= 0 || resp.Tasks != 20 {
		t.Errorf("response = %+v", resp.Best)
	}
	if len(resp.Timeline) != 20 {
		t.Errorf("timeline has %d events, want 20", len(resp.Timeline))
	}
}

// TestServeConcurrentRequests is the acceptance end-to-end: >= 8
// concurrent goroutines mixing identical and distinct instances.
// Identical requests solve exactly once (the hit/miss counters prove
// it) and every response is byte-identical to the serial result.
func TestServeConcurrentRequests(t *testing.T) {
	const identical, distinct = 8, 4
	const total = identical + distinct
	s := New(testConfig())
	h := s.Handler()

	shared := genTraceText(t, 21, 20)
	texts := make([]string, total)
	for i := 0; i < identical; i++ {
		texts[i] = shared
	}
	for i := 0; i < distinct; i++ {
		texts[identical+i] = genTraceText(t, 100+int64(i), 15)
	}

	codes := make([]int, total)
	bodies := make([][]byte, total)
	cacheHdrs := make([]string, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postRaw(h, "/solve?capacity=1.5", texts[i])
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
			cacheHdrs[i] = rec.Header().Get("X-Transched-Cache")
		}(i)
	}
	wg.Wait()

	for i := 0; i < total; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
	}

	// Byte-identical to the serial solve, for every request.
	wantShared := referenceBody(t, shared, transched.SolveOptions{CapacityMultiplier: 1.5})
	for i := 0; i < identical; i++ {
		if !bytes.Equal(bodies[i], wantShared) {
			t.Errorf("identical request %d (cache %s) body differs from serial solve", i, cacheHdrs[i])
		}
	}
	for i := identical; i < total; i++ {
		want := referenceBody(t, texts[i], transched.SolveOptions{CapacityMultiplier: 1.5})
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("distinct request %d body differs from serial solve", i)
		}
	}

	// Exactly one solve per distinct digest: 1 shared + 4 distinct.
	reg := s.cfg.Registry
	if got := reg.Counter("serve_cache_misses_total").Value(); got != 1+distinct {
		t.Errorf("misses = %d, want %d (identical requests must solve once)", got, 1+distinct)
	}
	if got := reg.Counter("serve_cache_hits_total").Value(); got != identical-1 {
		t.Errorf("hits = %d, want %d", got, identical-1)
	}
	if got := reg.Counter("serve_requests_total").Value(); got != total {
		t.Errorf("requests = %d, want %d", got, total)
	}
	if got := reg.Counter("serve_errors_total").Value(); got != 0 {
		t.Errorf("errors = %d", got)
	}
}

// TestServeExpiredDeadline: a request whose deadline has already passed
// returns promptly with the timeout status and never occupies a solver.
func TestServeExpiredDeadline(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(genTraceText(t, 31, 20))).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("expired request took %v", elapsed)
	}
	if got := s.cfg.Registry.Counter("serve_timeouts_total").Value(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Errorf("timeout body = %s", rec.Body.String())
	}
}

// TestServeQueuedRequestTimesOut: a request parked behind a busy solver
// is bounded by its own timeout_ms.
func TestServeQueuedRequestTimesOut(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 4
	s := New(cfg)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.onSolve = func() {
		once.Do(func() { close(started) })
		<-release
	}
	h := s.Handler()

	blockerText := genTraceText(t, 41, 20)
	blockerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { blockerDone <- postRaw(h, "/solve", blockerText) }()
	<-started

	rec := postRaw(h, "/solve?timeout_ms=50", genTraceText(t, 42, 20))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("queued request status = %d: %s", rec.Code, rec.Body.String())
	}

	close(release)
	if rec := <-blockerDone; rec.Code != http.StatusOK {
		t.Fatalf("blocker status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestServeOverloadSheds: with the solver busy and the wait queue full,
// new distinct requests get 429 + Retry-After immediately.
func TestServeOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = -1 // no queue: shed as soon as the slot is busy
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

	blockerText := genTraceText(t, 51, 20)
	blockerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { blockerDone <- postRaw(h, "/solve", blockerText) }()
	<-started

	rec := postRaw(h, "/solve", genTraceText(t, 52, 20))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if got := s.cfg.Registry.Counter("serve_shed_total").Value(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	// An identical concurrent request, by contrast, joins the in-flight
	// solve instead of being shed: deduplication happens before
	// admission.
	joinDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { joinDone <- postRaw(h, "/solve", blockerText) }()

	close(release)
	blocker := <-blockerDone
	joined := <-joinDone
	if blocker.Code != http.StatusOK || joined.Code != http.StatusOK {
		t.Fatalf("blocker %d, joined %d", blocker.Code, joined.Code)
	}
	if !bytes.Equal(blocker.Body.Bytes(), joined.Body.Bytes()) {
		t.Error("joined response differs from the solve it joined")
	}
}

// TestServeDrain: draining completes in-flight solves while rejecting
// new ones with 503, and the readiness probe flips.
func TestServeDrain(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 2
	s := New(cfg)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.onSolve = func() {
		once.Do(func() { close(started) })
		<-release
	}
	h := s.Handler()

	inflightText := genTraceText(t, 61, 20)
	inflightDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { inflightDone <- postRaw(h, "/solve", inflightText) }()
	<-started

	s.BeginDrain()

	// Readiness flips to 503.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("/readyz while draining: %d %v", rec.Code, rec.Header())
	}
	// Liveness stays 200.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz while draining: %d", rec.Code)
	}
	// New work is shed with 503.
	if rec := postRaw(h, "/solve", genTraceText(t, 62, 20)); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("new solve while draining: %d, want 503", rec.Code)
	}

	// Drain blocks on the in-flight solve: the hard cutoff fires if the
	// deadline passes first...
	cut, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(cut); err != context.Canceled {
		t.Errorf("Drain past cutoff = %v, want context.Canceled", err)
	}
	// ...and completes cleanly once the solve finishes.
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if rec := <-inflightDone; rec.Code != http.StatusOK {
		t.Fatalf("in-flight solve during drain: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestServeListenAndServeDrainsOnCancel runs the daemon's own serving
// loop end to end over a real socket: serve, solve, cancel (the SIGTERM
// path), drain, exit clean.
func TestServeListenAndServeDrainsOnCancel(t *testing.T) {
	s := New(testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- s.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second, func(a net.Addr) { addrc <- a.String() })
	}()
	addr := <-addrc

	resp, err := http.Post("http://"+addr+"/solve?heuristic=OOLCMR", "text/plain",
		strings.NewReader(genTraceText(t, 71, 20)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	want := referenceBody(t, genTraceText(t, 71, 20), transched.SolveOptions{CapacityMultiplier: 1.5, Heuristic: "OOLCMR"})
	if !bytes.Equal(body, want) {
		t.Error("over-the-wire response differs from serial solve")
	}

	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("ListenAndServe after cancel = %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestServeRejectsBadRequests covers the 4xx surface.
func TestServeRejectsBadRequests(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/solve", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET /solve: %d %v", rec.Code, rec.Header())
	}

	for name, target := range map[string]string{
		"empty body":        "/solve",
		"bad capacity":      "/solve?capacity=-1",
		"unknown heuristic": "/solve?heuristic=NOPE",
	} {
		body := ""
		if name != "empty body" {
			body = genTraceText(t, 81, 10)
		}
		if rec := postRaw(h, target, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", name, rec.Code)
		}
	}

	// A well-formed but unschedulable instance (capacity below the
	// largest task) fails in the solver and maps to 422.
	if rec := postRaw(h, "/solve?capacity=0.5", genTraceText(t, 82, 10)); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unschedulable instance: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestServeBatchedRequest exercises the online-runtime path through the
// service and its determinism.
func TestServeBatchedRequest(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	text := genTraceText(t, 91, 24)
	env := fmt.Sprintf(`{"trace": %s, "capacity": 1.5, "batch": 8}`, mustJSON(t, text))

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(env))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Batches != 3 || len(resp.Choices) != 3 {
		t.Errorf("batches = %d choices = %v, want 3 of each", resp.Batches, resp.Choices)
	}
	want := referenceBody(t, text, transched.SolveOptions{CapacityMultiplier: 1.5, BatchSize: 8})
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Error("batched response differs from serial batched solve")
	}
}

// TestServeAuxEndpoints smoke-checks the non-solve surface.
func TestServeAuxEndpoints(t *testing.T) {
	s := New(testConfig())
	h := s.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("/healthz: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ready") {
		t.Errorf("/readyz: %d %q", rec.Code, rec.Body.String())
	}
	postRaw(h, "/solve", genTraceText(t, 95, 10))
	if rec := get("/metrics"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "serve_requests_total") ||
		!strings.Contains(rec.Body.String(), "serve_queue_depth") {
		t.Errorf("/metrics missing serve_* series:\n%s", rec.Body.String())
	}
	if rec := get("/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "POST /solve") {
		t.Errorf("usage page: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get("/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("/nope: %d", rec.Code)
	}
}

// mustJSON marshals v as a JSON value for envelope construction.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
