// Package serve is the scheduling service: an HTTP/JSON front end over
// the transched facade that turns the solver portfolio into a
// low-latency daemon (cmd/transchedd). Three mechanisms make the
// NP-complete instances affordable under traffic:
//
//   - a content-addressed result cache (codec.go, cache.go): requests
//     are canonicalised and digested, identical instances hit a bounded
//     LRU, and concurrent identical requests compute once;
//   - admission control (admission.go): a fixed number of concurrent
//     solves, a bounded wait queue, per-request deadlines propagated
//     via context, and 429/503 + Retry-After on overload;
//   - graceful drain (server.go): stop accepting, finish in-flight,
//     hard cutoff.
//
// The determinism contract, asserted by the end-to-end tests: an
// identical request produces a byte-identical response body, whether it
// was computed or served from the cache (SERVING.md).
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"transched"
	"transched/internal/heuristics"
	"transched/internal/trace"
)

// Request is the solve envelope. Clients either POST it as
// application/json, or POST the raw trace text (any other content type)
// with the remaining fields as query parameters of the same names —
// the curl-friendly form the smoke scripts use.
type Request struct {
	// Trace is the instance in the plain-text v1 trace format.
	Trace string `json:"trace"`
	// Capacity is the memory capacity as a multiple of the trace's
	// minimum requirement mc; 0 means 1.5 (the cmd/transched default).
	Capacity float64 `json:"capacity,omitempty"`
	// Heuristic runs only the named strategy; empty runs the whole
	// portfolio and returns the best schedule.
	Heuristic string `json:"heuristic,omitempty"`
	// Batch, when positive, schedules through the online runtime in
	// submission batches of this size (automatic per-batch selection
	// when Heuristic is empty).
	Batch int `json:"batch,omitempty"`
	// TimeoutMS caps this request's solve time in milliseconds; 0 uses
	// the server default. Values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Result is one strategy's outcome on the wire.
type Result struct {
	Heuristic string  `json:"heuristic"`
	Makespan  float64 `json:"makespan"`
	Ratio     float64 `json:"ratio"`
}

// Event is one task's placement on the wire.
type Event struct {
	Task      string  `json:"task"`
	CommStart float64 `json:"comm_start"`
	CommEnd   float64 `json:"comm_end"`
	CompStart float64 `json:"comp_start"`
	CompEnd   float64 `json:"comp_end"`
}

// Response is the solve reply: the instance profile, the committed
// strategy, the portfolio comparison, the Table 6 advice and the
// per-event timeline. Marshalling is deterministic (fixed field order,
// no maps), which the byte-identical caching contract relies on.
type Response struct {
	App         string   `json:"app"`
	Process     int      `json:"process"`
	Tasks       int      `json:"tasks"`
	MinCapacity float64  `json:"min_capacity"`
	Multiplier  float64  `json:"multiplier"`
	Capacity    float64  `json:"capacity"`
	OMIM        float64  `json:"omim"`
	Sequential  float64  `json:"sequential"`
	Best        Result   `json:"best"`
	Results     []Result `json:"results"`
	Advised     []string `json:"advised"`
	Batches     int      `json:"batches,omitempty"`
	Choices     []string `json:"choices,omitempty"`
	Timeline    []Event  `json:"timeline"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds a request body; the 800-task paper traces are a
// few tens of KB, so 16MB leaves three orders of magnitude of headroom
// while keeping a hostile client from buffering the server out.
const maxBodyBytes = 16 << 20

// parsedRequest is a decoded, validated, canonicalised request.
type parsedRequest struct {
	req    Request
	trace  *trace.Trace
	digest string
	opts   transched.SolveOptions
}

// rawRequest is a /solve request as read off the wire: the three
// things parseRequest looks at, and nothing else.
type rawRequest struct {
	json  bool   // the body is a JSON envelope, not a raw trace
	query string // the URL's raw query, verbatim
	body  []byte
}

// readRequest reads the request body once and records the form and
// the raw query beside it.
func readRequest(r *http.Request) (rawRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return rawRequest{}, fmt.Errorf("reading request body: %w", err)
	}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return rawRequest{
		json:  err == nil && mt == "application/json",
		query: r.URL.RawQuery,
		body:  body,
	}, nil
}

// alias returns the request's cache alias: SHA-256 over the form bit,
// the length-prefixed raw query and the body. parseRequest is a pure
// function of exactly these three, so two requests with equal aliases
// always have equal digests, and a repeated request can be answered
// from the alias without parsing its trace.
func (raw rawRequest) alias() [sha256.Size]byte {
	var head [9]byte
	if raw.json {
		head[0] = 1
	}
	binary.BigEndian.PutUint64(head[1:], uint64(len(raw.query)))
	h := sha256.New()
	h.Write(head[:])
	io.WriteString(h, raw.query)
	h.Write(raw.body)
	var a [sha256.Size]byte
	h.Sum(a[:0])
	return a
}

// decodeRequest reads the envelope from either accepted form.
func decodeRequest(raw rawRequest) (Request, error) {
	if raw.json {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(raw.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return Request{}, fmt.Errorf("decoding JSON envelope: %w", err)
		}
		return req, nil
	}
	// Raw trace body; options ride in the query string, parsed as
	// url.URL.Query parses it.
	req := Request{Trace: string(raw.body)}
	q, _ := url.ParseQuery(raw.query)
	if v := q.Get("capacity"); v != "" {
		c, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Request{}, fmt.Errorf("query capacity %q: %w", v, err)
		}
		req.Capacity = c
	}
	req.Heuristic = q.Get("heuristic")
	if v := q.Get("batch"); v != "" {
		b, err := strconv.Atoi(v)
		if err != nil {
			return Request{}, fmt.Errorf("query batch %q: %w", v, err)
		}
		req.Batch = b
	}
	if v := q.Get("timeout_ms"); v != "" {
		t, err := strconv.Atoi(v)
		if err != nil {
			return Request{}, fmt.Errorf("query timeout_ms %q: %w", v, err)
		}
		req.TimeoutMS = t
	}
	return req, nil
}

// parseRequest validates the envelope and computes the canonical cache
// key. Every malformed input dies here, at the codec, before a solver
// or a cache slot is touched.
func parseRequest(raw rawRequest) (*parsedRequest, error) {
	req, err := decodeRequest(raw)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.Trace) == "" {
		return nil, fmt.Errorf("empty trace")
	}
	tr, err := trace.Read(strings.NewReader(req.Trace))
	if err != nil {
		return nil, err
	}
	if req.Capacity == 0 {
		req.Capacity = 1.5
	}
	if req.Capacity <= 0 || math.IsNaN(req.Capacity) || math.IsInf(req.Capacity, 0) {
		return nil, fmt.Errorf("capacity multiplier %g must be positive and finite", req.Capacity)
	}
	if req.Batch < 0 {
		return nil, fmt.Errorf("batch %d must be non-negative", req.Batch)
	}
	req.Heuristic = strings.ToUpper(strings.TrimSpace(req.Heuristic))
	if req.Heuristic != "" {
		if _, err := heuristics.ByName(req.Heuristic, 1); err != nil {
			return nil, err
		}
	}
	p := &parsedRequest{
		req:   req,
		trace: tr,
		opts: transched.SolveOptions{
			CapacityMultiplier: req.Capacity,
			Heuristic:          req.Heuristic,
			BatchSize:          req.Batch,
		},
	}
	p.digest, err = Digest(tr, p.opts)
	return p, err
}

// Digest returns the content address of a solve: SHA-256 over the
// canonical trace encoding (the codec's own Write output, so the
// whitespace, comments, directive order and float spelling of the
// client's encoding all vanish) plus the normalised solve options.
// Two requests share a digest exactly when they describe the same
// instance and options — the same digest discipline as the golden
// trace-generation tests.
func Digest(tr *trace.Trace, opts transched.SolveOptions) (string, error) {
	h := sha256.New()
	if err := trace.Write(h, tr); err != nil {
		return "", err
	}
	// The NUL separator cannot appear in the trace encoding, so the
	// option block never aliases trace bytes.
	fmt.Fprintf(h, "\x00opts %.17g %d %s", opts.CapacityMultiplier, opts.BatchSize, opts.Heuristic)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// buildResponse shapes a facade result for the wire.
func buildResponse(res *transched.SolveResult) *Response {
	out := &Response{
		App:         res.App,
		Process:     res.Process,
		Tasks:       res.Tasks,
		MinCapacity: res.MinCapacity,
		Multiplier:  res.Multiplier,
		Capacity:    res.Capacity,
		OMIM:        res.OMIM,
		Sequential:  res.Sequential,
		Best:        Result(res.Best),
		Results:     make([]Result, len(res.Results)),
		Advised:     res.Advised,
		Batches:     res.Batches,
		Choices:     res.Choices,
		Timeline:    make([]Event, 0, res.Tasks),
	}
	for i, r := range res.Results {
		out.Results[i] = Result(r)
	}
	for _, e := range res.Timeline() {
		out.Timeline = append(out.Timeline, Event(e))
	}
	return out
}
