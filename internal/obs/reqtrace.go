package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Request tracing: per-request span trees with per-stage latency
// attribution for the serving tier. Every request gets a ReqTrace
// carrying its SpanContext and one span per serving stage (decode,
// admission queue, cache, disk store, solve, encode);
// completed traces land in bounded rings behind /debug/requests, feed
// fixed-name serve_stage_seconds_* histograms, and are (sampled)
// exportable as Chrome trace events — one track per stage — loadable
// in Perfetto next to the schedule traces (OBSERVABILITY.md).
//
// The house rule from the telemetry layer applies throughout: a nil
// *ReqTracer hands out nil *ReqTrace handles, every method on both is
// a no-op on nil, and the off path performs zero clock reads and zero
// allocations, so responses are byte-identical with tracing on or off.

// Stage names one serving stage. The taxonomy is fixed: stage metrics
// have fixed names and the trace export has one track per stage.
type Stage uint8

const (
	// StageDecode is request parse + validation + content digest.
	StageDecode Stage = iota
	// StageQueue is the admission wait for a solver slot.
	StageQueue
	// StageCache is result-cache bookkeeping, including the wait when
	// joining an identical in-flight solve.
	StageCache
	// StageStoreRead is a disk-store lookup on a memory miss.
	StageStoreRead
	// StageStoreWrite is the write-through of a computed result.
	StageStoreWrite
	// StageSolve is the solver itself.
	StageSolve
	// StageEncode is response marshalling.
	StageEncode

	numStages int = iota
)

var stageNames = [numStages]string{
	"decode", "queue", "cache", "store_read", "store_write", "solve", "encode",
}

// String returns the stage's fixed name.
func (s Stage) String() string {
	if int(s) < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// MetricName returns the stage's fixed histogram name on /metrics.
func (s Stage) MetricName() string { return "serve_stage_seconds_" + s.String() }

// ReqTracerConfig sizes a ReqTracer. The zero value is usable.
type ReqTracerConfig struct {
	// Registry receives the serve_stage_seconds_* histograms; nil skips
	// metric export (rings and trace export still work).
	Registry *Registry
	// Recent bounds the most-recently-completed ring (default 64).
	Recent int
	// Slowest bounds the slowest-completed ring (default 32).
	Slowest int
	// Trace, when non-nil, receives sampled Chrome trace events: one
	// request track plus one track per stage.
	Trace *Trace
	// SampleEvery exports every Nth completed request to Trace
	// (default 1: every request).
	SampleEvery int
	// SlowThreshold, when positive, logs a full span breakdown for any
	// request at least this slow (requires Logger).
	SlowThreshold time.Duration
	// Logger receives slow-request records; nil disables them.
	Logger *slog.Logger
	// Name labels the process track in the trace export (default
	// "requests").
	Name string
}

func (c ReqTracerConfig) withDefaults() ReqTracerConfig {
	if c.Recent <= 0 {
		c.Recent = 64
	}
	if c.Slowest <= 0 {
		c.Slowest = 32
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.Name == "" {
		c.Name = "requests"
	}
	return c
}

// ReqTracer hands out request traces and keeps the completed ones:
// an x/net/trace-style in-process view (active requests plus the
// slowest-N and most-recent-N completed), without the dependency.
// All methods are safe for concurrent use and no-ops on nil.
type ReqTracer struct {
	cfg   ReqTracerConfig
	hists [numStages]*Histogram
	start time.Time
	pid   int

	trackOnce sync.Once

	mu        sync.Mutex
	active    map[*ReqTrace]struct{}
	recent    []ReqSummary // circular, recentPos is the next overwrite
	recentPos int
	slowest   []ReqSummary // sorted by TotalSeconds descending
	seq       uint64       // completed-request count, drives sampling
}

// NewReqTracer builds a tracer. All nine stage histograms are
// registered up front (when a registry is configured) so the /metrics
// ordering does not depend on traffic.
func NewReqTracer(cfg ReqTracerConfig) *ReqTracer {
	cfg = cfg.withDefaults()
	t := &ReqTracer{
		cfg:    cfg,
		start:  time.Now(),
		active: make(map[*ReqTrace]struct{}),
		recent: make([]ReqSummary, 0, cfg.Recent),
	}
	if cfg.Registry != nil {
		for s := 0; s < numStages; s++ {
			t.hists[s] = cfg.Registry.Histogram(Stage(s).MetricName(), DefaultBuckets())
		}
	}
	if cfg.Trace != nil {
		t.pid = cfg.Trace.NextPID()
	}
	return t
}

// Start opens a trace for one request. A valid parent (from the
// propagation header) continues that trace with a fresh span ID and
// records the parent span; otherwise a root trace is minted. Returns
// nil — a universal no-op handle — when the tracer is nil.
func (t *ReqTracer) Start(op string, parent SpanContext) *ReqTrace {
	if t == nil {
		return nil
	}
	r := &ReqTrace{tracer: t, op: op, start: time.Now()}
	if parent.Valid() {
		r.sc = SpanContext{Trace: parent.Trace, Span: NewSpanID()}
		r.parent = parent.Span
	} else {
		r.sc = SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	}
	t.mu.Lock()
	t.active[r] = struct{}{}
	t.mu.Unlock()
	return r
}

// ReqTrace is one request's span tree. Methods are safe for concurrent
// use (/debug/requests renders active traces while their handlers
// record) and no-ops on a nil receiver.
type ReqTrace struct {
	tracer *ReqTracer
	op     string
	sc     SpanContext
	parent SpanID
	start  time.Time

	mu     sync.Mutex
	stages [numStages]time.Duration
	counts [numStages]uint32
	spans  []SpanRec
	digest string
	cache  string
	status int
	done   bool
}

// SpanRec is one recorded span. Shared spans (a singleflight joiner's
// view of the owner's solve) appear in the tree but do not count
// toward the stage durations — the joiner never ran that work.
type SpanRec struct {
	Stage  Stage
	ID     SpanID
	Start  time.Time
	Dur    time.Duration
	Shared bool
}

// Context returns the request's span context (zero on nil).
func (r *ReqTrace) Context() SpanContext {
	if r == nil {
		return SpanContext{}
	}
	return r.sc
}

// StageTimer measures one stage span; obtain with StartStage, finish
// with End. The zero value (from a nil trace) is an inert no-op, so
// the off path costs neither a clock read nor an allocation.
type StageTimer struct {
	r  *ReqTrace
	st Stage
	t0 time.Time
}

// StartStage opens a span for stage s now.
func (r *ReqTrace) StartStage(s Stage) StageTimer {
	if r == nil {
		return StageTimer{}
	}
	return StageTimer{r: r, st: s, t0: time.Now()}
}

// End closes the span and records it.
func (t StageTimer) End() {
	if t.r == nil {
		return
	}
	t.r.record(t.st, t.t0, time.Since(t.t0), false)
}

func (r *ReqTrace) record(s Stage, start time.Time, d time.Duration, shared bool) {
	rec := SpanRec{Stage: s, ID: NewSpanID(), Start: start, Dur: d, Shared: shared}
	r.mu.Lock()
	if r.done {
		// Spans recorded after Finish have nowhere to go once the
		// trace is retired.
		r.mu.Unlock()
		return
	}
	if !shared {
		r.stages[s] += d
		r.counts[s]++
	}
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
}

// SpanRef names a span another trace can share.
type SpanRef struct {
	ID    SpanID
	Start time.Time
	Dur   time.Duration
}

// SolveRef returns the trace's most recent solve span, for sharing
// with singleflight joiners.
func (r *ReqTrace) SolveRef() (SpanRef, bool) {
	if r == nil {
		return SpanRef{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if sp := r.spans[i]; sp.Stage == StageSolve && !sp.Shared {
			return SpanRef{ID: sp.ID, Start: sp.Start, Dur: sp.Dur}, true
		}
	}
	return SpanRef{}, false
}

// AdoptSolve grafts another request's solve span into this trace as a
// shared span: the joiner of a singleflight solve keeps its own span
// tree but shows the one solve that actually ran. Shared spans do not
// add to the stage durations.
func (r *ReqTrace) AdoptSolve(ref SpanRef) {
	if r == nil || ref.ID.IsZero() {
		return
	}
	rec := SpanRec{Stage: StageSolve, ID: ref.ID, Start: ref.Start, Dur: ref.Dur, Shared: true}
	r.mu.Lock()
	if !r.done {
		r.spans = append(r.spans, rec)
	}
	r.mu.Unlock()
}

// SetDigest records the request's content digest.
func (r *ReqTrace) SetDigest(d string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.digest = d
	r.mu.Unlock()
}

// SetStatus records the HTTP status the request was answered with.
func (r *ReqTrace) SetStatus(code int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.status = code
	r.mu.Unlock()
}

// SetCacheSource records where the response body came from
// ("memory", "flight", "store", "compute").
func (r *ReqTrace) SetCacheSource(src string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cache = src
	r.mu.Unlock()
}

// TimingHeader renders the X-Transched-Timing response header in
// Server-Timing style: "decode;dur=0.051, solve;dur=1.903, ...,
// total;dur=2.210", durations in milliseconds, stages in taxonomy
// order, unobserved stages omitted. Empty on nil.
func (r *ReqTrace) TimingHeader() string {
	if r == nil {
		return ""
	}
	total := time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := make([]byte, 0, 128)
	for s := 0; s < numStages; s++ {
		if r.counts[s] == 0 {
			continue
		}
		if len(buf) > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, stageNames[s]...)
		buf = append(buf, ";dur="...)
		buf = strconv.AppendFloat(buf, r.stages[s].Seconds()*1e3, 'f', 3, 64)
	}
	if len(buf) > 0 {
		buf = append(buf, ", "...)
	}
	buf = append(buf, "total;dur="...)
	buf = strconv.AppendFloat(buf, total.Seconds()*1e3, 'f', 3, 64)
	return string(buf)
}

// Finish closes the request span: the stage histograms observe, the
// trace moves from the active set into the completed rings, the
// sampled Chrome export emits, and a slow request is logged with its
// full breakdown. Idempotent; no-op on nil.
func (r *ReqTrace) Finish() {
	if r == nil {
		return
	}
	total := time.Since(r.start)
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	sum := r.summaryLocked(total, false)
	spans := append([]SpanRec(nil), r.spans...)
	stages, counts := r.stages, r.counts
	r.mu.Unlock()

	t := r.tracer
	for s := 0; s < numStages; s++ {
		if t.hists[s] != nil && counts[s] > 0 {
			t.hists[s].Observe(stages[s].Seconds())
		}
	}
	t.complete(r, sum, spans, total)
}

// summaryLocked renders the trace's current state; r.mu must be held.
// Active summaries report the in-progress duration as their total.
func (r *ReqTrace) summaryLocked(total time.Duration, active bool) ReqSummary {
	sum := ReqSummary{
		Op:           r.op,
		Trace:        r.sc.Trace.String(),
		Span:         r.sc.Span.String(),
		StartSeconds: r.start.Sub(r.tracer.start).Seconds(),
		TotalSeconds: total.Seconds(),
		Active:       active,
		Status:       r.status,
		Digest:       r.digest,
		Cache:        r.cache,
	}
	if !r.parent.IsZero() {
		sum.Parent = r.parent.String()
	}
	var stageSum time.Duration
	for s := 0; s < numStages; s++ {
		if r.counts[s] == 0 {
			continue
		}
		stageSum += r.stages[s]
		sum.Stages = append(sum.Stages, StageDur{
			Stage:   stageNames[s],
			Seconds: r.stages[s].Seconds(),
			Count:   r.counts[s],
		})
	}
	if total > 0 {
		sum.StageCoverage = stageSum.Seconds() / total.Seconds()
	}
	for _, sp := range r.spans {
		sum.Spans = append(sum.Spans, SpanSummary{
			Stage:        sp.Stage.String(),
			Span:         sp.ID.String(),
			StartSeconds: sp.Start.Sub(r.start).Seconds(),
			Seconds:      sp.Dur.Seconds(),
			Shared:       sp.Shared,
		})
	}
	return sum
}

// StageDur is one stage's total within a request.
type StageDur struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Count   uint32  `json:"count"`
}

// SpanSummary is one span in a rendered trace; StartSeconds is the
// offset from the request's own start.
type SpanSummary struct {
	Stage        string  `json:"stage"`
	Span         string  `json:"span"`
	StartSeconds float64 `json:"start_seconds"`
	Seconds      float64 `json:"seconds"`
	Shared       bool    `json:"shared,omitempty"`
}

// ReqSummary is one request trace in /debug/requests form.
// StageCoverage is sum(stage durations)/total — the accounting
// identity the smoke test asserts stays >= 0.95 for computed solves.
type ReqSummary struct {
	Op            string        `json:"op"`
	Trace         string        `json:"trace"`
	Span          string        `json:"span"`
	Parent        string        `json:"parent,omitempty"`
	StartSeconds  float64       `json:"start_seconds"`
	TotalSeconds  float64       `json:"total_seconds"`
	StageCoverage float64       `json:"stage_coverage"`
	Active        bool          `json:"active,omitempty"`
	Status        int           `json:"status,omitempty"`
	Digest        string        `json:"digest,omitempty"`
	Cache         string        `json:"cache,omitempty"`
	Stages        []StageDur    `json:"stages,omitempty"`
	Spans         []SpanSummary `json:"spans,omitempty"`
}

// complete retires a finished trace into the rings, the sampled trace
// export and the slow-request log.
func (t *ReqTracer) complete(r *ReqTrace, sum ReqSummary, spans []SpanRec, total time.Duration) {
	t.mu.Lock()
	delete(t.active, r)
	t.seq++
	sampled := t.cfg.Trace != nil && t.seq%uint64(t.cfg.SampleEvery) == 0
	if len(t.recent) < t.cfg.Recent {
		t.recent = append(t.recent, sum)
	} else {
		t.recent[t.recentPos] = sum
		t.recentPos = (t.recentPos + 1) % t.cfg.Recent
	}
	i := sort.Search(len(t.slowest), func(i int) bool {
		return t.slowest[i].TotalSeconds < sum.TotalSeconds
	})
	if i < t.cfg.Slowest {
		t.slowest = append(t.slowest, ReqSummary{})
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = sum
		if len(t.slowest) > t.cfg.Slowest {
			t.slowest = t.slowest[:t.cfg.Slowest]
		}
	}
	t.mu.Unlock()

	if sampled {
		t.export(sum, spans, r.start, total)
	}
	if t.cfg.Logger != nil && t.cfg.SlowThreshold > 0 && total >= t.cfg.SlowThreshold {
		attrs := []any{
			"op", sum.Op, "trace", sum.Trace, "span", sum.Span,
			"digest", sum.Digest, "status", sum.Status,
			"total_seconds", sum.TotalSeconds, "stage_coverage", sum.StageCoverage,
		}
		for _, st := range sum.Stages {
			attrs = append(attrs, "stage_"+st.Stage+"_seconds", st.Seconds)
		}
		t.cfg.Logger.Warn("slow request", attrs...)
	}
}

// export renders one completed request onto the Chrome trace sink:
// a span on the "request" track plus one span per stage on that
// stage's track. Timestamps are microseconds since the tracer opened.
func (t *ReqTracer) export(sum ReqSummary, spans []SpanRec, start time.Time, total time.Duration) {
	tr := t.cfg.Trace
	t.trackOnce.Do(func() {
		tr.NameProcess(t.pid, t.cfg.Name)
		tr.NameThread(t.pid, 1, "request")
		for s := 0; s < numStages; s++ {
			tr.NameThread(t.pid, 2+s, stageNames[s])
		}
	})
	ts := func(at time.Time) float64 { return float64(at.Sub(t.start).Microseconds()) }
	name := sum.Op
	if sum.Digest != "" {
		name += " " + sum.Digest
	}
	tr.Span(t.pid, 1, name, ts(start), float64(total.Microseconds()), map[string]any{
		"trace": sum.Trace, "span": sum.Span, "status": sum.Status, "cache": sum.Cache,
	})
	for _, sp := range spans {
		args := map[string]any{"span": sp.ID.String(), "trace": sum.Trace}
		if sp.Shared {
			args["shared"] = true
		}
		tr.Span(t.pid, 2+int(sp.Stage), sp.Stage.String(), ts(sp.Start), float64(sp.Dur.Microseconds()), args)
	}
}

// ReqTracerSnapshot is the /debug/requests document.
type ReqTracerSnapshot struct {
	Active  []ReqSummary `json:"active"`
	Slowest []ReqSummary `json:"slowest"`
	Recent  []ReqSummary `json:"recent"`
}

// Snapshot copies the tracer's current view: active requests plus the
// slowest and most recent completed ones (newest first). Nil-safe.
func (t *ReqTracer) Snapshot() ReqTracerSnapshot {
	var snap ReqTracerSnapshot
	if t == nil {
		return snap
	}
	t.mu.Lock()
	actives := make([]*ReqTrace, 0, len(t.active))
	for r := range t.active {
		//transched:allow-maporder collected then sorted by start below
		actives = append(actives, r)
	}
	snap.Slowest = append([]ReqSummary(nil), t.slowest...)
	n := len(t.recent)
	snap.Recent = make([]ReqSummary, 0, n)
	for i := 0; i < n; i++ {
		// Newest first: recentPos is the oldest entry once the ring is
		// full; before that, entries are appended in order.
		var idx int
		if n < t.cfg.Recent {
			idx = n - 1 - i
		} else {
			idx = ((t.recentPos-1-i)%n + n) % n
		}
		snap.Recent = append(snap.Recent, t.recent[idx])
	}
	t.mu.Unlock()

	sort.Slice(actives, func(i, j int) bool { return actives[i].start.Before(actives[j].start) })
	for _, r := range actives {
		r.mu.Lock()
		snap.Active = append(snap.Active, r.summaryLocked(time.Since(r.start), true))
		r.mu.Unlock()
	}
	return snap
}

// RequestsHandler serves the tracer's snapshot at /debug/requests:
// a plain-text breakdown by default, the JSON document with
// ?format=json (what the smoke helper parses).
func RequestsHandler(t *ReqTracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := t.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeSummaries := func(title string, sums []ReqSummary) {
			fmt.Fprintf(w, "%s (%d)\n", title, len(sums))
			for _, s := range sums {
				fmt.Fprintf(w, "  %s span=%s", s.Trace, s.Span)
				if s.Parent != "" {
					fmt.Fprintf(w, " parent=%s", s.Parent)
				}
				fmt.Fprintf(w, " %s total=%.3fms coverage=%.2f", s.Op, s.TotalSeconds*1e3, s.StageCoverage)
				if s.Status != 0 {
					fmt.Fprintf(w, " status=%d", s.Status)
				}
				if s.Digest != "" {
					fmt.Fprintf(w, " digest=%s", s.Digest)
				}
				if s.Cache != "" {
					fmt.Fprintf(w, " cache=%s", s.Cache)
				}
				fmt.Fprintln(w)
				for _, st := range s.Stages {
					fmt.Fprintf(w, "    %-11s %9.3fms x%d\n", st.Stage, st.Seconds*1e3, st.Count)
				}
			}
		}
		writeSummaries("ACTIVE", snap.Active)
		writeSummaries("SLOWEST", snap.Slowest)
		writeSummaries("RECENT", snap.Recent)
	})
}
