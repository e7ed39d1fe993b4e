package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare needs: each metric's
// direction and, for the end-to-end metrics, its regression bound.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// readResults reads a result set: a file of JSON records, or every
// .json and .jsonl file in a directory.
func readResults(path string) ([]record, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		files = nil
		for _, pat := range []string{"*.json", "*.jsonl"} {
			m, err := filepath.Glob(filepath.Join(path, pat))
			if err != nil {
				return nil, err
			}
			files = append(files, m...)
		}
		sort.Strings(files)
	}
	var recs []record
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(fh)
		for {
			var rec record
			err := dec.Decode(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			recs = append(recs, rec)
		}
		fh.Close()
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return recs, nil
}

// Verdicts judge gives a (metric, workload) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minRuns is the fewest runs per side compare accepts for a pair; a
// claimed gain needs nine wins in ten pairs, so ten runs per side are
// what a change that claims one should bring.
const minRuns = 5

// judge compares one (metric, workload) pair. The change improved when
// it won at least nine tenths of ten or more pairs (run i against run i)
// and the medians differ by more than the parent's interquartile range. It
// regressed when its median is worse than the parent's by more than the
// bound. Where either side's interquartile spread exceeds the bound the
// pair is unresolved — unless every change run is better than every
// parent run (then unchanged), or worse than every parent run by more
// than the bound (then regressed).
func judge(parent, change []float64, lowerBetter bool, bound float64) (verdict string, delta float64) {
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	better := func(a, b float64) bool { return sign*a < sign*b }
	mp, mc := median(parent), median(change)
	delta = sign * (mc - mp) / mp // > 0 is worse
	q1, q3 := quartiles(parent)
	pairs, wins := min(len(parent), len(change)), 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
			allWorse = allWorse && better(p, c)
		}
	}
	noisy := spread(parent) > bound || spread(change) > bound
	switch {
	case pairs >= 10 && delta < 0 && 10*wins >= 9*pairs && math.Abs(mc-mp) > q3-q1:
		return improved, delta
	case delta > bound && (!noisy || allWorse):
		return regressed, delta
	case noisy && !allBetter:
		return unresolved, delta
	}
	return unchanged, delta
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(v, n=4) (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// comparison is one row of the report.
type comparison struct {
	workload, metric string
	parent, change   []float64
	bound, delta     float64
	verdict          string
}

// compareSets judges every end-to-end (metric, workload) pair, each
// workload's failure rate and its worstGap, and finds the per-layer metric whose median
// moved the most on each workload.
func compareSets(sp *spec, parent, change []record) ([]comparison, []string, error) {
	var rows []comparison
	var notes []string
	for _, wl := range workloadNames(parent, change) {
		for _, m := range sp.EndToEnd {
			p := values(parent, wl, m.Name, false)
			c := values(change, wl, m.Name, false)
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			if len(p) < minRuns || len(c) < minRuns {
				return nil, nil, fmt.Errorf("%s %s: %d parent and %d change runs, need at least %d each",
					wl, m.Name, len(p), len(c), minRuns)
			}
			v, d := judge(p, c, m.Better == "lower", m.Bound)
			rows = append(rows, comparison{workload: wl, metric: m.Name, parent: p, change: c, bound: m.Bound, delta: d, verdict: v})
		}
		pr, cr := failRate(parent, wl), failRate(change, wl)
		v := unchanged
		switch {
		case cr > pr:
			v = regressed
		case cr < pr:
			v = improved
		}
		rows = append(rows, comparison{workload: wl, metric: "fail_rate",
			parent: []float64{pr}, change: []float64{cr}, delta: cr - pr, verdict: v})

		best, moved := "", 0.0
		for _, m := range sp.PerLayer {
			if m.Name == worstGap {
				if row, ok := judgeExact(parent, change, wl, m.Name, m.Better == "lower"); ok {
					rows = append(rows, row)
				}
			}
			p := values(parent, wl, m.Name, true)
			c := values(change, wl, m.Name, true)
			if len(p) == 0 || len(c) == 0 || median(p) == 0 {
				continue
			}
			if d := median(c)/median(p) - 1; math.Abs(d) > math.Abs(moved) {
				best, moved = m.Name, d
			}
			if m.Unit == "count" {
				if s := countMismatch(parent, change, wl, m.Name); s != "" {
					notes = append(notes, s)
				}
			}
		}
		if best != "" {
			notes = append(notes, fmt.Sprintf("%s: per-layer metric that moved the most: %s (%+.1f%%)", wl, best, 100*moved))
		}
	}
	return rows, notes, nil
}

// workloadNames lists the workloads either set covers, in sorted order.
func workloadNames(sets ...[]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, set := range sets {
		for _, r := range set {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

// values returns one metric's values across a set's runs of a workload,
// in run order, from the untraced or the traced runs.
func values(set []record, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range set {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failRate is failed over attempted operations across a set's runs.
func failRate(set []record, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range set {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// worstGap is the per-layer metric compare judges with no bound: it
// repeats exactly at a seed, so any change is the code's doing.
const worstGap = "milp.gap_max"

// judgeExact pairs a per-layer metric's traced runs by seed. The change
// regressed when it is worse at any seed both sides ran, and improved when
// it is better at one and worse at none. A metric that is 0 in every run
// (a workload that never calls the layer) gives no row.
func judgeExact(parent, change []record, workload, metric string, lowerBetter bool) (comparison, bool) {
	bySeed := map[int64]float64{}
	for _, r := range parent {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace {
			bySeed[r.Seed] = v.Value
		}
	}
	row := comparison{workload: workload, metric: metric, verdict: unchanged}
	nonzero, worse, better := false, false, false
	for _, r := range change {
		v, ok := r.Metrics[metric]
		p, seen := bySeed[r.Seed]
		if !ok || !seen || r.Workload != workload || !r.Trace {
			continue
		}
		row.parent, row.change = append(row.parent, p), append(row.change, v.Value)
		nonzero = nonzero || p != 0 || v.Value != 0
		if lowerBetter {
			worse, better = worse || v.Value > p, better || v.Value < p
		} else {
			worse, better = worse || v.Value < p, better || v.Value > p
		}
	}
	if !nonzero {
		return comparison{}, false
	}
	row.delta = median(row.change) - median(row.parent)
	if !lowerBetter {
		row.delta = -row.delta
	}
	switch {
	case worse:
		row.verdict = regressed
	case better:
		row.verdict = improved
	}
	return row, true
}

// countMismatch reports a per-layer count that differs between two
// traced runs of the same workload and seed; counts must repeat exactly.
func countMismatch(parent, change []record, workload, metric string) string {
	bySeed := map[int64]float64{}
	for _, r := range parent {
		if r.Workload == workload && r.Trace {
			bySeed[r.Seed] = r.Metrics[metric].Value
		}
	}
	for _, r := range change {
		if p, ok := bySeed[r.Seed]; ok && r.Workload == workload && r.Trace && r.Metrics[metric].Value != p {
			return fmt.Sprintf("%s: count %s differs at seed %d: %v then %v", workload, metric, r.Seed, p, r.Metrics[metric].Value)
		}
	}
	return ""
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] <parent results> <change results>")
		return 2
	}
	rows, notes, err := compareFiles(*specPath, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	return writeComparison(stdout, rows, notes)
}

func compareFiles(specPath, parentPath, changePath string) ([]comparison, []string, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return nil, nil, err
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return nil, nil, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return nil, nil, err
	}
	return compareSets(sp, parent, change)
}

// writeComparison prints the report and returns 1 when any pair
// regressed.
func writeComparison(w io.Writer, rows []comparison, notes []string) int {
	fmt.Fprintf(w, "%-13s %-24s %26s %26s %9s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "bound", "verdict")
	code := 0
	for _, c := range rows {
		fmt.Fprintf(w, "%-13s %-24s %26s %26s %+8.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, summary(c.parent), summary(c.change), 100*c.delta, 100*c.bound, c.verdict)
		if c.verdict == regressed {
			code = 1
		}
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	return code
}

func summary(v []float64) string {
	if len(v) == 1 {
		return fmt.Sprintf("%.4g", v[0])
	}
	q1, q3 := quartiles(v)
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g, %.4g]", median(v), q1, q3))
}
