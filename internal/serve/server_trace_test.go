package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"transched/internal/obs"
)

// tracedConfig is testConfig plus a request tracer on the same
// registry, the wiring transchedd uses by default.
func tracedConfig() Config {
	cfg := testConfig()
	cfg.Tracer = obs.NewReqTracer(obs.ReqTracerConfig{Registry: cfg.Registry})
	return cfg
}

// TestServeTracedByteIdenticalToUntraced is the tracing acceptance
// test: the same requests through a traced and an untraced daemon
// produce exactly the same bytes — tracing observes, it never alters.
func TestServeTracedByteIdenticalToUntraced(t *testing.T) {
	plain := New(testConfig()).Handler()
	traced := New(tracedConfig()).Handler()

	for i := 0; i < 4; i++ {
		text := genTraceText(t, 900+int64(i), 12)
		// Twice each, so hit paths are compared too.
		for round := 0; round < 2; round++ {
			a := postRaw(plain, "/solve?capacity=1.5", text)
			b := postRaw(traced, "/solve?capacity=1.5", text)
			if a.Code != b.Code {
				t.Fatalf("instance %d round %d: status %d (plain) vs %d (traced)", i, round, a.Code, b.Code)
			}
			if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
				t.Errorf("instance %d round %d: traced body differs from untraced", i, round)
			}
		}
	}
}

// TestServeTraceHeadersOnResponse: a traced daemon answers with a
// parseable X-Transched-Trace and an X-Transched-Timing whose stages
// follow the fixed taxonomy; a client-supplied parent is continued,
// not replaced.
func TestServeTraceHeadersOnResponse(t *testing.T) {
	cfg := tracedConfig()
	s := New(cfg)
	h := s.Handler()
	text := genTraceText(t, 950, 12)

	rec := postRaw(h, "/solve?capacity=1.5", text)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	sc, ok := obs.ParseTraceHeader(rec.Header().Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("response %s header %q does not parse", obs.TraceHeader, rec.Header().Get(obs.TraceHeader))
	}
	timing := rec.Header().Get("X-Transched-Timing")
	for _, want := range []string{"decode;dur=", "solve;dur=", "encode;dur=", "total;dur="} {
		if !strings.Contains(timing, want) {
			t.Errorf("timing header %q misses %s", timing, want)
		}
	}

	// Continue the trace: the response must carry the same trace ID
	// with a fresh span, and /debug/requests must record the parent.
	parent := obs.SpanContext{Trace: sc.Trace, Span: obs.NewSpanID()}
	req := httptest.NewRequest(http.MethodPost, "/solve?capacity=1.5", strings.NewReader(text))
	req.Header.Set(obs.TraceHeader, parent.HeaderValue())
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	got, ok := obs.ParseTraceHeader(rec2.Header().Get(obs.TraceHeader))
	if !ok {
		t.Fatal("continued request lost its trace header")
	}
	if got.Trace != parent.Trace {
		t.Errorf("trace ID changed across continuation: %s vs %s", got.Trace, parent.Trace)
	}
	if got.Span == parent.Span {
		t.Error("continued request reused the parent span ID")
	}
	// The repeat is an alias hit: it reads and hashes the body (decode)
	// and finds the entry (cache), and solves nothing. (The encode slice
	// is still open while the header renders.)
	timing = rec2.Header().Get("X-Transched-Timing")
	for _, want := range []string{"decode;dur=", "cache;dur=", "total;dur="} {
		if !strings.Contains(timing, want) {
			t.Errorf("alias hit timing header %q misses %s", timing, want)
		}
	}
	if strings.Contains(timing, "solve;dur=") {
		t.Errorf("alias hit timing header %q shows a solve", timing)
	}
	if got := cfg.Registry.Counter("serve_cache_alias_hits_total").Value(); got != 1 {
		t.Errorf("alias hits = %d, want 1", got)
	}

	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, httptest.NewRequest(http.MethodGet, "/debug/requests?format=json", nil))
	var snap obs.ReqTracerSnapshot
	if err := json.Unmarshal(rec3.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/requests?format=json: %v", err)
	}
	foundParent := false
	for _, sum := range snap.Recent {
		if sum.Parent == parent.Span.String() && sum.Trace == parent.Trace.String() {
			foundParent = true
			if sum.Digest != rec.Header().Get("X-Transched-Digest") || sum.Cache != "memory" || sum.Status != http.StatusOK {
				t.Errorf("alias hit recorded as digest %q, cache %q, status %d", sum.Digest, sum.Cache, sum.Status)
			}
		}
	}
	if !foundParent {
		t.Error("/debug/requests does not show the continued request's parent span")
	}
}

// TestServeMalformedTraceHeaderMintsRoot: X-Transched-Trace is
// untrusted client input. A value that does not parse is ignored, not
// rejected: the request is served with the same bytes as one without
// the header, under a freshly minted root trace with no parent.
func TestServeMalformedTraceHeaderMintsRoot(t *testing.T) {
	h := New(tracedConfig()).Handler()
	text := genTraceText(t, 952, 10)
	ref := postRaw(h, "/solve?capacity=1.5", text)
	if ref.Code != http.StatusOK {
		t.Fatalf("status %d: %s", ref.Code, ref.Body.String())
	}
	valid := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}.HeaderValue()
	for _, c := range []struct{ name, value string }{
		{"truncated", valid[:48]},
		{"wrong separator", strings.Replace(valid, "-", "_", 1)},
		{"non-hex span", valid[:33] + "zzzzzzzzzzzzzzzz"},
		{"zero trace", strings.Repeat("0", 32) + valid[32:]},
		{"zero span", valid[:33] + strings.Repeat("0", 16)},
	} {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/solve?capacity=1.5", strings.NewReader(text))
			req.Header.Set(obs.TraceHeader, c.value)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d with header %q: %s", rec.Code, c.value, rec.Body.String())
			}
			if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
				t.Error("a malformed trace header changed the response body")
			}
			got, ok := obs.ParseTraceHeader(rec.Header().Get(obs.TraceHeader))
			if !ok {
				t.Fatalf("response %s %q does not parse", obs.TraceHeader, rec.Header().Get(obs.TraceHeader))
			}
			if strings.Contains(c.value, got.Trace.String()) {
				t.Errorf("trace %s taken from the malformed header %q", got.Trace, c.value)
			}
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests?format=json", nil))
			var snap obs.ReqTracerSnapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				t.Fatalf("/debug/requests?format=json: %v", err)
			}
			found := false
			for _, sum := range snap.Recent {
				if sum.Trace == got.Trace.String() {
					found = true
					if sum.Parent != "" {
						t.Errorf("root trace records parent %s from a malformed header", sum.Parent)
					}
				}
			}
			if !found {
				t.Errorf("trace %s absent from /debug/requests", got.Trace)
			}
		})
	}
}

// TestServeUntracedHasNoTraceHeaders: with the tracer off, no tracing
// surface leaks into responses and /debug/requests is not mounted.
func TestServeUntracedHasNoTraceHeaders(t *testing.T) {
	h := New(testConfig()).Handler()
	rec := postRaw(h, "/solve?capacity=1.5", genTraceText(t, 951, 10))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if v := rec.Header().Get(obs.TraceHeader); v != "" {
		t.Errorf("untraced response carries %s: %q", obs.TraceHeader, v)
	}
	if v := rec.Header().Get("X-Transched-Timing"); v != "" {
		t.Errorf("untraced response carries X-Transched-Timing: %q", v)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/requests mounted without a tracer (status %d)", rec.Code)
	}
}

// TestSingleflightJoinersShareSolveSpan: requests that join an
// in-flight identical solve keep their own trace but graft the owner's
// solve span in as a shared span, excluded from their stage sums.
func TestSingleflightJoinersShareSolveSpan(t *testing.T) {
	tracer := obs.NewReqTracer(obs.ReqTracerConfig{})
	c := newCache(8, 0, nil, nil)

	started := make(chan struct{})
	release := make(chan struct{})
	owner := tracer.Start("solve", obs.SpanContext{})
	var ownerBody []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ownerBody, _, _ = c.Do(context.Background(), "k", owner, func() ([]byte, error) {
			close(started)
			st := owner.StartStage(obs.StageSolve)
			<-release
			st.End()
			return []byte("body"), nil
		})
	}()
	<-started

	joiner := tracer.Start("solve", obs.SpanContext{})
	joined := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(joined)
		body, src, err := c.Do(context.Background(), "k", joiner, func() ([]byte, error) {
			t.Error("joiner ran its own compute")
			return nil, nil
		})
		if err != nil || src != srcFlight || string(body) != "body" {
			t.Errorf("joiner got %q src=%v err=%v, want flight join", body, src, err)
		}
	}()

	// Let the joiner park on the flight, then finish the solve.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if string(ownerBody) != "body" {
		t.Fatalf("owner body %q", ownerBody)
	}
	owner.Finish()
	joiner.Finish()

	ownerRef, ok := owner.SolveRef()
	if !ok {
		t.Fatal("owner has no solve span")
	}
	snap := tracer.Snapshot()
	var joinerSum *obs.ReqSummary
	for i, sum := range snap.Recent {
		for _, sp := range sum.Spans {
			if sp.Shared {
				joinerSum = &snap.Recent[i]
			}
		}
	}
	if joinerSum == nil {
		t.Fatal("no summary carries a shared span")
	}
	sharedSolve := false
	for _, sp := range joinerSum.Spans {
		if sp.Shared && sp.Stage == "solve" && sp.Span == ownerRef.ID.String() {
			sharedSolve = true
		}
	}
	if !sharedSolve {
		t.Error("joiner does not share the owner's solve span ID")
	}
	for _, st := range joinerSum.Stages {
		if st.Stage == "solve" {
			t.Error("shared solve counted toward the joiner's stage durations")
		}
	}
}
