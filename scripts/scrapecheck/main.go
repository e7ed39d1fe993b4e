// Command scrapecheck is the smoke tests' scrape validator: it fetches
// a transchedd observability endpoint and checks the response actually
// parses as what it claims to be, with no dependency beyond the
// standard library.
//
// Two modes:
//
//	scrapecheck -metrics URL [-require name1,name2]
//	    GET URL and validate it as Prometheus text exposition
//	    (version 0.0.4): every sample line is "name[{labels}] value",
//	    every sample belongs to a preceding # TYPE family, and each
//	    -require name appears as a sample (prefix match, so histogram
//	    _bucket/_sum/_count series satisfy their family name).
//
//	scrapecheck -requests URL [-trace HEX32] [-min-coverage F]
//	    GET URL and parse it as the /debug/requests?format=json
//	    document. Every request's stage_coverage must equal the sum of
//	    its stage seconds over total_seconds (to 1e-6 relative) — the
//	    accounting identity OBSERVABILITY.md documents, recomputed
//	    rather than trusted. With -trace, the named trace ID must
//	    appear in some ring; with -min-coverage, that trace's
//	    recomputed coverage must be at least F.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		metricsURL  = flag.String("metrics", "", "validate this URL as Prometheus text exposition")
		require     = flag.String("require", "", "comma-separated metric names that must appear (with -metrics)")
		requestsURL = flag.String("requests", "", "validate this URL as a /debug/requests JSON document")
		traceID     = flag.String("trace", "", "trace ID that must appear in the document (with -requests)")
		minCoverage = flag.Float64("min-coverage", 0, "minimum stage coverage for the -trace request")
	)
	flag.Parse()
	var err error
	switch {
	case *metricsURL != "":
		err = checkMetrics(*metricsURL, *require)
	case *requestsURL != "":
		err = checkRequests(*requestsURL, *traceID, *minCoverage)
	default:
		err = fmt.Errorf("one of -metrics or -requests is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrapecheck:", err)
		os.Exit(1)
	}
}

func get(url string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// checkMetrics validates url as Prometheus text exposition format.
func checkMetrics(url, require string) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	families := map[string]bool{}
	samples := 0
	var sampleNames []string
	for ln, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", ln+1, fields[3])
				}
				families[fields[2]] = true
			}
			continue
		}
		// A sample: name[{labels}] value
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return fmt.Errorf("line %d: unbalanced labels: %q", ln+1, line)
			}
			name = line[:i]
			line = name + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("line %d: not a name/value sample: %q", ln+1, line)
		}
		name = fields[0]
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("line %d: non-numeric sample value %q", ln+1, fields[1])
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t := strings.TrimSuffix(name, suffix); t != name && families[t] {
				family = t
			}
		}
		if !families[family] {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE line", ln+1, name)
		}
		samples++
		sampleNames = append(sampleNames, name)
	}
	if samples == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, name := range sampleNames {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("required metric %q absent from scrape", want)
		}
	}
	fmt.Printf("scrapecheck: ok (%d samples, %d families)\n", samples, len(families))
	return nil
}

// reqSummary mirrors the fields of obs.ReqSummary the checks need.
type reqSummary struct {
	Trace         string  `json:"trace"`
	TotalSeconds  float64 `json:"total_seconds"`
	StageCoverage float64 `json:"stage_coverage"`
	Stages        []struct {
		Stage   string  `json:"stage"`
		Seconds float64 `json:"seconds"`
	} `json:"stages"`
}

// coverage is the share of the request's span its stages account for,
// computed from the stages themselves (0 for an empty span, as the
// server reports it).
func (s reqSummary) coverage() float64 {
	if s.TotalSeconds <= 0 {
		return 0
	}
	sum := 0.0
	for _, st := range s.Stages {
		sum += st.Seconds
	}
	return sum / s.TotalSeconds
}

// checkRequests validates url as the /debug/requests JSON document.
func checkRequests(url, traceID string, minCoverage float64) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	var doc struct {
		Active  []reqSummary `json:"active"`
		Slowest []reqSummary `json:"slowest"`
		Recent  []reqSummary `json:"recent"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("document does not parse as a requests snapshot: %w", err)
	}
	all := append(append(append([]reqSummary(nil), doc.Active...), doc.Slowest...), doc.Recent...)
	for _, sum := range all {
		if got := sum.coverage(); math.Abs(got-sum.StageCoverage) > 1e-6*math.Max(got, sum.StageCoverage) {
			return fmt.Errorf("trace %s: reported stage coverage %.6f disagrees with its stages, which sum to %.6f of the span",
				sum.Trace, sum.StageCoverage, got)
		}
	}
	if traceID == "" {
		fmt.Printf("scrapecheck: ok (%d active, %d slowest, %d recent)\n",
			len(doc.Active), len(doc.Slowest), len(doc.Recent))
		return nil
	}
	for _, sum := range all {
		if sum.Trace != traceID {
			continue
		}
		cov := sum.coverage()
		if minCoverage > 0 && cov < minCoverage {
			return fmt.Errorf("trace %s: stage coverage %.3f below %.3f (stages account for too little of the %.3fms span)",
				traceID, cov, minCoverage, sum.TotalSeconds*1e3)
		}
		fmt.Printf("scrapecheck: ok (trace %s, %d stages, coverage %.3f)\n",
			traceID, len(sum.Stages), cov)
		return nil
	}
	return fmt.Errorf("trace %s absent from %s", traceID, url)
}
