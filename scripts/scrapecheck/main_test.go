package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveBody starts a server answering every GET with body.
func serveBody(t *testing.T, body string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

const exposition = `# HELP serve_requests_total Requests served.
# TYPE serve_requests_total counter
serve_requests_total 12
# TYPE serve_queue_depth gauge
serve_queue_depth 0
# TYPE serve_solve_seconds histogram
serve_solve_seconds_bucket{le="0.001"} 3
serve_solve_seconds_bucket{le="+Inf"} 5
serve_solve_seconds_sum 0.012
serve_solve_seconds_count 5
`

func TestCheckMetrics(t *testing.T) {
	for _, c := range []struct {
		name, body, require, wantErr string
	}{
		{name: "well-formed", body: exposition,
			require: "serve_requests_total, serve_solve_seconds"},
		{name: "sample without a TYPE family",
			body:    exposition + "serve_orphan_total 1\n",
			wantErr: `sample "serve_orphan_total" has no preceding # TYPE line`},
		{name: "missing required series", body: exposition,
			require: "serve_requests_total,serve_shed_total",
			wantErr: `required metric "serve_shed_total" absent`},
		{name: "unknown type", body: "# TYPE x widget\nx 1\n",
			wantErr: `unknown metric type "widget"`},
		{name: "non-numeric value", body: "# TYPE x gauge\nx high\n",
			wantErr: `non-numeric sample value "high"`},
		{name: "no samples", body: "# TYPE x gauge\n",
			wantErr: "no samples"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkMetrics(serveBody(t, c.body), c.require)
			checkErr(t, err, c.wantErr)
		})
	}
}

const requestsDoc = `{
  "active": [],
  "slowest": [{"trace": "aaaa", "total_seconds": 0.004, "stage_coverage": 0.99,
    "stages": [{"stage": "decode", "seconds": 0.001}, {"stage": "solve", "seconds": 0.00296}]}],
  "recent": [{"trace": "bbbb", "total_seconds": 0.010, "stage_coverage": 0.40,
    "stages": [{"stage": "solve", "seconds": 0.004}]}]
}`

func TestCheckRequests(t *testing.T) {
	for _, c := range []struct {
		name, body, trace string
		minCoverage       float64
		wantErr           string
	}{
		{name: "document only", body: requestsDoc},
		{name: "trace covered", body: requestsDoc, trace: "aaaa", minCoverage: 0.95},
		{name: "missing trace", body: requestsDoc, trace: "cccc",
			wantErr: "trace cccc absent"},
		{name: "stage sum below min-coverage", body: requestsDoc, trace: "bbbb", minCoverage: 0.95,
			wantErr: "stage coverage 0.400 below 0.950"},
		{name: "reported coverage contradicts the stages", trace: "dddd", minCoverage: 0.95,
			body: `{"recent": [{"trace": "dddd", "total_seconds": 0.010, "stage_coverage": 0.99,
				"stages": [{"stage": "solve", "seconds": 0.004}]}]}`,
			wantErr: "reported stage coverage 0.990000 disagrees with its stages, which sum to 0.400000"},
		{name: "reported coverage agrees within rounding", trace: "eeee", minCoverage: 0.35,
			body: `{"recent": [{"trace": "eeee", "total_seconds": 0.010, "stage_coverage": 0.4000001,
				"stages": [{"stage": "solve", "seconds": 0.004}]}]}`},
		{name: "contradiction fails without a trace filter",
			body: `{"active": [{"trace": "ffff", "total_seconds": 0.010, "stage_coverage": 0.99,
				"stages": [{"stage": "queue", "seconds": 0.002}]}]}`,
			wantErr: "trace ffff: reported stage coverage 0.990000 disagrees with its stages, which sum to 0.200000"},
		{name: "not a requests document", body: "[1, 2]",
			wantErr: "does not parse as a requests snapshot"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkRequests(serveBody(t, c.body), c.trace, c.minCoverage)
			checkErr(t, err, c.wantErr)
		})
	}
}

func TestGetRejectsNon200(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	checkErr(t, checkMetrics(srv.URL, ""), "status 404")
}

// checkErr fails unless err is nil when want is empty, or carries want.
func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Fatalf("unexpected error: %v", err)
	case want != "" && err == nil:
		t.Fatalf("no error, want one containing %q", want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Fatalf("error %q, want one containing %q", err, want)
	}
}
