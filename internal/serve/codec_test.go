package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"transched"
	"transched/internal/trace"
)

// canonicalText is a trace in the codec's own output style.
const canonicalText = "# transched trace v1\n" +
	"app HF\n" +
	"process 0\n" +
	"task a 1.5 2.25 1\n" +
	"task b 0.125 4 2\n"

// messyText describes the same instance with different whitespace,
// comments, directive order and float spellings.
const messyText = "# transched trace v1\n" +
	"\n" +
	"# generated by some other tool\n" +
	"process 0\n" +
	"task a 1.50 0.225e1 1.0\n" +
	"task\tb   125e-3 4.00 2\n" +
	"app HF\n"

// parseHTTP reads r the way the handler does and parses it.
func parseHTTP(r *http.Request) (*parsedRequest, error) {
	raw, err := readRequest(r)
	if err != nil {
		return nil, err
	}
	return parseRequest(raw)
}

func mustRead(t *testing.T, text string) *trace.Trace {
	t.Helper()
	tr, err := trace.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustDigest(t *testing.T, tr *trace.Trace, opts transched.SolveOptions) string {
	t.Helper()
	d, err := Digest(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDigestCanonicalisesEncoding is the cache-correctness property:
// two canonically-different encodings of the same trace map to the same
// content address, so clients with different serialisers share cache
// entries.
func TestDigestCanonicalisesEncoding(t *testing.T) {
	opts := transched.SolveOptions{CapacityMultiplier: 1.5}
	a := mustDigest(t, mustRead(t, canonicalText), opts)
	b := mustDigest(t, mustRead(t, messyText), opts)
	if a != b {
		t.Errorf("same instance, different digests: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Errorf("digest %q is not a 64-hex-digit SHA-256", a)
	}

	// A genuinely different instance (task order is part of the
	// submission sequence, hence of the problem) must not collide.
	swapped := mustRead(t, canonicalText)
	swapped.Tasks[0], swapped.Tasks[1] = swapped.Tasks[1], swapped.Tasks[0]
	if d := mustDigest(t, swapped, opts); d == a {
		t.Error("task order ignored by digest")
	}
}

// TestDigestSeparatesOptions: every solve option is part of the content
// address — a cached portfolio answer must never satisfy a single-
// heuristic request, and capacity changes the instance.
func TestDigestSeparatesOptions(t *testing.T) {
	tr := mustRead(t, canonicalText)
	base := mustDigest(t, tr, transched.SolveOptions{CapacityMultiplier: 1.5})
	variants := []transched.SolveOptions{
		{CapacityMultiplier: 2},
		{CapacityMultiplier: 1.5, Heuristic: "OOLCMR"},
		{CapacityMultiplier: 1.5, BatchSize: 8},
	}
	seen := map[string]bool{base: true}
	for _, opts := range variants {
		d := mustDigest(t, tr, opts)
		if seen[d] {
			t.Errorf("options %+v collide with an earlier digest %s", opts, d)
		}
		seen[d] = true
	}
}

func TestDecodeRequestJSONEnvelope(t *testing.T) {
	body := `{"trace": "# transched trace v1\ntask a 1 2 3\n", "capacity": 2, "heuristic": "oolcmr", "batch": 8, "timeout_ms": 250}`
	r := httptest.NewRequest("POST", "/solve", strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json; charset=utf-8")
	p, err := parseHTTP(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.opts.CapacityMultiplier != 2 || p.opts.Heuristic != "OOLCMR" || p.opts.BatchSize != 8 {
		t.Errorf("opts = %+v", p.opts)
	}
	if p.req.TimeoutMS != 250 {
		t.Errorf("timeout_ms = %d", p.req.TimeoutMS)
	}
	if len(p.trace.Tasks) != 1 || p.trace.Tasks[0].Name != "a" {
		t.Errorf("trace = %+v", p.trace)
	}
}

func TestDecodeRequestRawTraceWithQuery(t *testing.T) {
	r := httptest.NewRequest("POST", "/solve?capacity=2&heuristic=OOLCMR&batch=4&timeout_ms=100", strings.NewReader(canonicalText))
	r.Header.Set("Content-Type", "text/plain")
	p, err := parseHTTP(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.opts.CapacityMultiplier != 2 || p.opts.Heuristic != "OOLCMR" || p.opts.BatchSize != 4 || p.req.TimeoutMS != 100 {
		t.Errorf("opts = %+v timeout=%d", p.opts, p.req.TimeoutMS)
	}

	// The two accepted forms of the same request share a digest.
	jr := httptest.NewRequest("POST", "/solve", strings.NewReader(
		`{"trace": `+jsonString(messyText)+`, "capacity": 2, "heuristic": "OOLCMR", "batch": 4}`))
	jr.Header.Set("Content-Type", "application/json")
	jp, err := parseHTTP(jr)
	if err != nil {
		t.Fatal(err)
	}
	if jp.digest != p.digest {
		t.Errorf("JSON and raw forms of one request disagree: %s vs %s", jp.digest, p.digest)
	}
}

// jsonString quotes s as a JSON string literal.
func jsonString(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '"':
			sb.WriteString(`\"`)
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func TestParseRequestDefaultsCapacity(t *testing.T) {
	r := httptest.NewRequest("POST", "/solve", strings.NewReader(canonicalText))
	p, err := parseHTTP(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.opts.CapacityMultiplier != 1.5 {
		t.Errorf("default multiplier = %g, want 1.5", p.opts.CapacityMultiplier)
	}
}

func TestParseRequestRejects(t *testing.T) {
	reject := []struct {
		name, target, body, ct string
	}{
		{"empty body", "/solve", "", ""},
		{"blank trace", "/solve", "   \n\t", ""},
		{"malformed trace", "/solve", "task a 1 2 3\n", ""},
		{"nan trace value", "/solve", "# transched trace v1\ntask a NaN 1 1\n", ""},
		{"duplicate tasks", "/solve", "# transched trace v1\ntask a 1 1 1\ntask a 1 1 1\n", ""},
		{"negative capacity", "/solve?capacity=-1", canonicalText, ""},
		{"nan capacity", "/solve?capacity=NaN", canonicalText, ""},
		{"inf capacity", "/solve?capacity=Inf", canonicalText, ""},
		{"bad capacity", "/solve?capacity=lots", canonicalText, ""},
		{"negative batch", "/solve?batch=-1", canonicalText, ""},
		{"bad batch", "/solve?batch=x", canonicalText, ""},
		{"bad timeout", "/solve?timeout_ms=x", canonicalText, ""},
		{"unknown heuristic", "/solve?heuristic=NOPE", canonicalText, ""},
		{"bad json", "/solve", "{", "application/json"},
		{"unknown json field", "/solve", `{"trace": "x", "nope": 1}`, "application/json"},
	}
	for _, tc := range reject {
		r := httptest.NewRequest("POST", tc.target, strings.NewReader(tc.body))
		if tc.ct != "" {
			r.Header.Set("Content-Type", tc.ct)
		}
		if _, err := parseHTTP(r); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// zeros is an endless reader of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestReadRequestBoundsBody: a body over maxBodyBytes is refused
// after the bound, whether or not its length was declared; a body
// within the bound reads whole.
func TestReadRequestBoundsBody(t *testing.T) {
	for _, length := range []int64{maxBodyBytes + 1, -1} {
		over := httptest.NewRequest("POST", "/solve", io.LimitReader(zeros{}, maxBodyBytes+1))
		over.ContentLength = length
		if _, err := readRequest(over); err == nil {
			t.Errorf("declared length %d, body over the bound: accepted", length)
		}
	}

	small := httptest.NewRequest("POST", "/solve", io.MultiReader(strings.NewReader(canonicalText), strings.NewReader(messyText)))
	small.ContentLength = -1
	raw, err := readRequest(small)
	if err != nil || string(raw.body) != canonicalText+messyText {
		t.Errorf("unknown length within the bound: body %q, err %v", raw.body, err)
	}
}

// TestReadRequestIgnoresDeclaredLength: the client controls
// Content-Length, so a request that declares the largest accepted body
// and sends a short one must not make the server allocate for the
// declared size; memory follows the bytes actually received.
func TestReadRequestIgnoresDeclaredLength(t *testing.T) {
	r := httptest.NewRequest("POST", "/solve", strings.NewReader(canonicalText))
	r.ContentLength = maxBodyBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	raw, err := readRequest(r)
	runtime.ReadMemStats(&after)
	if err != nil || string(raw.body) != canonicalText {
		t.Fatalf("body %q, err %v", raw.body, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBodyBytes/4 {
		t.Errorf("a %d-byte body declared as %d bytes allocated %d bytes", len(canonicalText), int64(maxBodyBytes), got)
	}
}
