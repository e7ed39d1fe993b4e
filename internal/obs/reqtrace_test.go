package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// observeStage records a stage span with the given bounds, so tests
// pin exact durations instead of timing StartStage/End.
func (r *ReqTrace) observeStage(s Stage, start time.Time, d time.Duration) {
	r.record(s, start, d, false)
}

// TestNilTracerUniversalNoOp pins the house rule: a nil tracer hands
// out nil traces, and every method on both is a safe no-op.
func TestNilTracerUniversalNoOp(t *testing.T) {
	var tr *ReqTracer
	r := tr.Start("solve", SpanContext{})
	if r != nil {
		t.Fatal("nil tracer handed out a non-nil trace")
	}
	st := r.StartStage(StageSolve)
	if !st.t0.IsZero() {
		t.Error("nil trace's StageTimer read the clock")
	}
	st.End()
	r.SetDigest("d")
	r.SetStatus(200)
	r.SetCacheSource("memory")
	r.AdoptSolve(SpanRef{})
	if _, ok := r.SolveRef(); ok {
		t.Error("nil trace has a solve ref")
	}
	if got := r.TimingHeader(); got != "" {
		t.Errorf("nil trace TimingHeader = %q, want empty", got)
	}
	if c := r.Context(); c.Valid() {
		t.Error("nil trace has a valid context")
	}
	r.Finish()
	snap := tr.Snapshot()
	if len(snap.Active)+len(snap.Recent)+len(snap.Slowest) != 0 {
		t.Error("nil tracer snapshot is not empty")
	}
}

func TestStageRecordingFeedsHistogramsAndHeader(t *testing.T) {
	reg := NewRegistry()
	tr := NewReqTracer(ReqTracerConfig{Registry: reg})
	r := tr.Start("solve", SpanContext{})
	base := time.Now()
	r.observeStage(StageDecode, base, 2*time.Millisecond)
	r.observeStage(StageSolve, base, 40*time.Millisecond)
	r.observeStage(StageSolve, base, 10*time.Millisecond) // accumulates

	h := r.TimingHeader()
	if !strings.Contains(h, "decode;dur=2.000") {
		t.Errorf("timing header %q misses decode", h)
	}
	if !strings.Contains(h, "solve;dur=50.000") {
		t.Errorf("timing header %q does not accumulate solve", h)
	}
	if !strings.Contains(h, "total;dur=") {
		t.Errorf("timing header %q misses total", h)
	}
	if strings.Index(h, "decode") > strings.Index(h, "solve") {
		t.Errorf("timing header %q not in taxonomy order", h)
	}

	r.SetStatus(200)
	r.Finish()
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		StageDecode.MetricName(): 1,
		StageSolve.MetricName():  1, // one observation of the summed duration
		StageQueue.MetricName():  0,
	} {
		var got int64 = -1
		for _, m := range snap.Metrics {
			if m.Name == name {
				got = m.Count
			}
		}
		if got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	// All seven stage histograms are pre-registered, traffic or not.
	for s := 0; s < numStages; s++ {
		found := false
		for _, m := range snap.Metrics {
			if m.Name == Stage(s).MetricName() {
				found = true
			}
		}
		if !found {
			t.Errorf("stage histogram %s not pre-registered", Stage(s).MetricName())
		}
	}
}

func TestParentContinuationKeepsTraceID(t *testing.T) {
	tr := NewReqTracer(ReqTracerConfig{})
	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	r := tr.Start("solve", parent)
	c := r.Context()
	if c.Trace != parent.Trace {
		t.Error("continued trace changed the trace ID")
	}
	if c.Span == parent.Span {
		t.Error("continued trace reused the parent's span ID")
	}
	r.Finish()
	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("recent has %d entries, want 1", len(snap.Recent))
	}
	if got := snap.Recent[0].Parent; got != parent.Span.String() {
		t.Errorf("summary parent = %q, want %q", got, parent.Span.String())
	}

	root := tr.Start("solve", SpanContext{})
	if root.Context().Trace == parent.Trace {
		t.Error("root trace inherited an old trace ID")
	}
	root.Finish()
}

func TestFinishIdempotentAndLateSpansDropped(t *testing.T) {
	reg := NewRegistry()
	tr := NewReqTracer(ReqTracerConfig{Registry: reg})
	r := tr.Start("solve", SpanContext{})
	r.observeStage(StageSolve, time.Now(), time.Millisecond)
	r.Finish()
	r.Finish() // idempotent
	// A span recorded after Finish lands in a retired trace.
	r.observeStage(StageQueue, time.Now(), time.Second)
	r.AdoptSolve(SpanRef{ID: NewSpanID()})

	snap := reg.Snapshot()
	if got := snap.Quantile(StageSolve.MetricName(), 1); got == 0 {
		t.Error("solve histogram empty after Finish")
	}
	for _, m := range snap.Metrics {
		if m.Name == StageQueue.MetricName() && m.Count != 0 {
			t.Error("late span after Finish reached the histograms")
		}
		if m.Name == StageSolve.MetricName() && m.Count != 1 {
			t.Errorf("solve observed %d times across double Finish, want 1", m.Count)
		}
	}
	trSnap := tr.Snapshot()
	if len(trSnap.Recent) != 1 {
		t.Errorf("double Finish retired the trace %d times", len(trSnap.Recent))
	}
	for _, sp := range trSnap.Recent[0].Spans {
		if sp.Stage == "queue" {
			t.Error("late span appears in the retired summary")
		}
	}
}

func TestRecentRingNewestFirstAndBounded(t *testing.T) {
	tr := NewReqTracer(ReqTracerConfig{Recent: 2, Slowest: 2})
	for _, op := range []string{"a", "b", "c"} {
		r := tr.Start(op, SpanContext{})
		r.Finish()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 2 {
		t.Fatalf("recent has %d entries, want 2", len(snap.Recent))
	}
	if snap.Recent[0].Op != "c" || snap.Recent[1].Op != "b" {
		t.Errorf("recent = [%s %s], want newest-first [c b]", snap.Recent[0].Op, snap.Recent[1].Op)
	}
	if len(snap.Slowest) != 2 {
		t.Fatalf("slowest has %d entries, want 2", len(snap.Slowest))
	}
	if snap.Slowest[0].TotalSeconds < snap.Slowest[1].TotalSeconds {
		t.Error("slowest ring not sorted descending")
	}
}

func TestAdoptSolveSharedSpanExcludedFromStages(t *testing.T) {
	tr := NewReqTracer(ReqTracerConfig{})
	owner := tr.Start("solve", SpanContext{})
	owner.observeStage(StageSolve, time.Now(), 30*time.Millisecond)
	ref, ok := owner.SolveRef()
	if !ok {
		t.Fatal("owner has no solve ref after recording a solve span")
	}

	joiner := tr.Start("solve", SpanContext{})
	joiner.AdoptSolve(ref)
	joiner.Finish()
	owner.Finish()

	snap := tr.Snapshot()
	var joined ReqSummary
	found := false
	for _, s := range snap.Recent {
		for _, sp := range s.Spans {
			if sp.Shared {
				joined, found = s, true
			}
		}
	}
	if !found {
		t.Fatal("joiner's summary has no shared span")
	}
	for _, st := range joined.Stages {
		if st.Stage == "solve" {
			t.Error("shared solve span counted toward the joiner's stage durations")
		}
	}
	sharedSeen := false
	for _, sp := range joined.Spans {
		if sp.Shared && sp.Stage == "solve" && sp.Span == ref.ID.String() {
			sharedSeen = true
		}
	}
	if !sharedSeen {
		t.Error("joiner's span tree misses the owner's solve span ID")
	}
}

func TestSnapshotShowsActiveRequests(t *testing.T) {
	tr := NewReqTracer(ReqTracerConfig{})
	r := tr.Start("solve", SpanContext{})
	snap := tr.Snapshot()
	if len(snap.Active) != 1 || !snap.Active[0].Active {
		t.Fatalf("active = %+v, want one active request", snap.Active)
	}
	r.Finish()
	snap = tr.Snapshot()
	if len(snap.Active) != 0 || len(snap.Recent) != 1 {
		t.Errorf("after Finish: %d active, %d recent; want 0, 1", len(snap.Active), len(snap.Recent))
	}
}

func TestRequestsHandlerJSONAndText(t *testing.T) {
	tr := NewReqTracer(ReqTracerConfig{})
	r := tr.Start("solve", SpanContext{})
	r.observeStage(StageSolve, time.Now(), 5*time.Millisecond)
	r.SetDigest("deadbeefdeadbeef")
	r.SetStatus(200)
	r.Finish()

	h := RequestsHandler(tr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	var snap ReqTracerSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON render does not parse: %v", err)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Digest != "deadbeefdeadbeef" {
		t.Errorf("JSON snapshot = %+v, want the completed request", snap.Recent)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	text := rec.Body.String()
	for _, want := range []string{"ACTIVE (0)", "RECENT (1)", "deadbeefdeadbeef", "solve"} {
		if !strings.Contains(text, want) {
			t.Errorf("text render misses %q:\n%s", want, text)
		}
	}
}

func TestChromeExportSampling(t *testing.T) {
	sink := NewTrace()
	tr := NewReqTracer(ReqTracerConfig{Trace: sink, SampleEvery: 2})
	r := tr.Start("solve", SpanContext{})
	r.observeStage(StageSolve, time.Now(), time.Millisecond)
	r.Finish() // seq 1: not sampled (1 % 2 != 0)
	if sink.Len() != 0 {
		t.Fatalf("first completion exported %d events, want 0 with SampleEvery=2", sink.Len())
	}
	r = tr.Start("solve", SpanContext{})
	r.observeStage(StageSolve, time.Now(), time.Millisecond)
	r.Finish() // seq 2: sampled
	if sink.Len() == 0 {
		t.Fatal("second completion exported nothing")
	}
	var sb strings.Builder
	if err := sink.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	out := sb.String()
	for _, want := range []string{`"request"`, `"solve"`, `"trace"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace export misses %s", want)
		}
	}
}

func TestStageCoverageIdentity(t *testing.T) {
	tr := NewReqTracer(ReqTracerConfig{})
	r := tr.Start("solve", SpanContext{})
	// Two stages covering nearly all of a 20ms request.
	time.Sleep(20 * time.Millisecond)
	now := time.Now()
	r.observeStage(StageQueue, now.Add(-20*time.Millisecond), 10*time.Millisecond)
	r.observeStage(StageSolve, now.Add(-10*time.Millisecond), 10*time.Millisecond)
	r.Finish()
	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatal("no completed request")
	}
	cov := snap.Recent[0].StageCoverage
	if cov <= 0 || cov > 1.05 {
		t.Errorf("stage coverage = %.3f, want within (0, ~1]", cov)
	}
	sum := 0.0
	for _, st := range snap.Recent[0].Stages {
		sum += st.Seconds
	}
	if got := sum / snap.Recent[0].TotalSeconds; absDiff(got, cov) > 1e-9 {
		t.Errorf("StageCoverage %.6f disagrees with sum/total %.6f", cov, got)
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestStageTaxonomyWireNames pins the seven stage names: they are a
// wire contract (the X-Transched-Timing header, the
// serve_stage_seconds_* histograms and /debug/requests all carry them),
// and each stage recorded alone surfaces under its own name only.
func TestStageTaxonomyWireNames(t *testing.T) {
	want := []struct {
		stage Stage
		name  string
	}{
		{StageDecode, "decode"},
		{StageQueue, "queue"},
		{StageCache, "cache"},
		{StageStoreRead, "store_read"},
		{StageStoreWrite, "store_write"},
		{StageSolve, "solve"},
		{StageEncode, "encode"},
	}
	if len(want) != numStages {
		t.Fatalf("taxonomy has %d stages, test pins %d", numStages, len(want))
	}
	for _, w := range want {
		t.Run(w.name, func(t *testing.T) {
			if got := w.stage.String(); got != w.name {
				t.Fatalf("Stage(%d).String() = %q, want %q", w.stage, got, w.name)
			}
			if got := w.stage.MetricName(); got != "serve_stage_seconds_"+w.name {
				t.Errorf("MetricName() = %q", got)
			}
			reg := NewRegistry()
			tr := NewReqTracer(ReqTracerConfig{Registry: reg})
			r := tr.Start("solve", SpanContext{})
			r.StartStage(w.stage).End()
			if h := r.TimingHeader(); !strings.HasPrefix(h, w.name+";dur=") || strings.Count(h, ";dur=") != 2 {
				t.Errorf("timing header %q: want only %s and total", h, w.name)
			}
			r.Finish()
			for _, m := range reg.Snapshot().Metrics {
				wantCount := int64(0)
				if m.Name == w.stage.MetricName() {
					wantCount = 1
				}
				if m.Count != wantCount {
					t.Errorf("%s count = %d, want %d", m.Name, m.Count, wantCount)
				}
			}
			stages := tr.Snapshot().Recent[0].Stages
			if len(stages) != 1 || stages[0].Stage != w.name {
				t.Errorf("/debug/requests stages = %+v, want one %s entry", stages, w.name)
			}
		})
	}
	if got := Stage(numStages).String(); got != "unknown" {
		t.Errorf("out-of-range stage renders %q, want unknown", got)
	}
}
