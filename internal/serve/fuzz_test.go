package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"transched/internal/heuristics"
	"transched/internal/trace"
)

// fuzzRequest builds a POST /solve the way net/http hands one to the
// handler. httptest.NewRequest panics on a target it cannot parse, and
// the query string is fuzzer-chosen, so the URL is assembled directly.
func fuzzRequest(body []byte, contentType, query string) *http.Request {
	r := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/solve", RawQuery: query},
		Header: http.Header{},
		Body:   io.NopCloser(bytes.NewReader(body)),
	}
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	return r
}

// FuzzParseRequest asserts the request decoder's contract on arbitrary
// bodies, content types and query strings — the untrusted input every
// /solve request feeds it:
//
//  1. reading and parsing never panic;
//  2. an accepted request has normalised options: a positive, finite
//     capacity multiplier, a non-negative batch size, and a heuristic
//     that is empty or one of heuristics.Names();
//  3. the digest is a content address: re-posting the canonical
//     encoding (trace.Write) of the accepted trace as a raw body, with
//     the same options in the query string, is accepted and yields the
//     same digest.
func FuzzParseRequest(f *testing.F) {
	const jsonCT = "application/json"
	// The accepted forms from codec_test.go.
	f.Add([]byte(canonicalText), "", "")
	f.Add([]byte(messyText), "text/plain", "capacity=2&heuristic=OOLCMR&batch=4&timeout_ms=100")
	f.Add([]byte(`{"trace": "# transched trace v1\ntask a 1 2 3\n", "capacity": 2, "heuristic": "oolcmr", "batch": 8, "timeout_ms": 250}`),
		"application/json; charset=utf-8", "")
	f.Add([]byte(`{"trace": `+jsonString(messyText)+`, "capacity": 2, "heuristic": "OOLCMR", "batch": 4}`), jsonCT, "")
	f.Add([]byte("# transched trace v1\n#! features bytes mem flops mem_traffic\napp HF\nprocess 0\ntask a 1 2 3\n#! feat a 1e6 3 2e9 0\n"),
		"", "heuristic=%20bp%20")
	// The rejected forms from TestParseRequestRejects.
	for _, c := range []struct{ body, ct, query string }{
		{"", "", ""},
		{"   \n\t", "", ""},
		{"task a 1 2 3\n", "", ""},
		{"# transched trace v1\ntask a NaN 1 1\n", "", ""},
		{"# transched trace v1\ntask a 1 1 1\ntask a 1 1 1\n", "", ""},
		{canonicalText, "", "capacity=-1"},
		{canonicalText, "", "capacity=NaN"},
		{canonicalText, "", "capacity=Inf"},
		{canonicalText, "", "capacity=lots"},
		{canonicalText, "", "batch=-1"},
		{canonicalText, "", "batch=x"},
		{canonicalText, "", "timeout_ms=x"},
		{canonicalText, "", "heuristic=NOPE"},
		{"{", jsonCT, ""},
		{`{"trace": "x", "nope": 1}`, jsonCT, ""},
		{`{"trace": "# transched trace v1\ntask a 1 2 3\n", "capacity": -0.5}`, jsonCT, ""},
		{canonicalText, "application/json; charset", "%zz&capacity=1e400"},
	} {
		f.Add([]byte(c.body), c.ct, c.query)
	}

	names := heuristics.Names()
	f.Fuzz(func(t *testing.T, body []byte, contentType, query string) {
		p, err := parseHTTP(fuzzRequest(body, contentType, query)) // must never panic
		if err != nil {
			return
		}
		if c := p.opts.CapacityMultiplier; !(c > 0) || math.IsInf(c, 0) {
			t.Fatalf("accepted capacity multiplier %g", c)
		}
		if p.opts.BatchSize < 0 {
			t.Fatalf("accepted batch %d", p.opts.BatchSize)
		}
		if h := p.opts.Heuristic; h != "" && !slices.Contains(names, h) {
			t.Fatalf("accepted heuristic %q, not one of %v", h, names)
		}

		var canon bytes.Buffer
		if err := trace.Write(&canon, p.trace); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		q := url.Values{}
		q.Set("capacity", strconv.FormatFloat(p.opts.CapacityMultiplier, 'g', -1, 64))
		q.Set("batch", strconv.Itoa(p.opts.BatchSize))
		q.Set("heuristic", p.opts.Heuristic)
		back, err := parseHTTP(fuzzRequest(canon.Bytes(), "text/plain", q.Encode()))
		if err != nil {
			t.Fatalf("re-posting the canonical encoding failed: %v\nencoded: %q\nquery: %s", err, canon.Bytes(), q.Encode())
		}
		if back.digest != p.digest {
			t.Fatalf("canonical re-post digest %s != original %s\nencoded: %q", back.digest, p.digest, canon.Bytes())
		}
	})
}
