package main

import (
	"strings"
	"testing"
)

// Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// runs returns n values around center with a relative jitter of ±spread/2.
func runs(n int, center, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 + spread*(float64(i)/float64(n-1)-0.5))
	}
	return out
}

// reversed pairs the fastest run of one side with the slowest of the
// other, so wins reflect the medians rather than the jitter pattern.
func reversed(v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[len(v)-1-i]
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	parent := runs(10, 100, 0.02)
	for _, tc := range []struct {
		name        string
		change      []float64
		lowerBetter bool
		want        string
	}{
		{"faster", runs(10, 90, 0.02), true, improved},
		{"same", reversed(runs(10, 100.5, 0.02)), true, unchanged},
		{"slower within bound", runs(10, 105, 0.02), true, unchanged},
		{"slower beyond bound", runs(10, 115, 0.02), true, regressed},
		{"throughput fell", runs(10, 85, 0.02), false, regressed},
		{"throughput rose", runs(10, 115, 0.02), false, improved},
		{"too noisy to tell", runs(10, 103, 0.6), true, unresolved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, _ := judge(parent, tc.change, tc.lowerBetter, 0.1); got != tc.want {
				t.Fatalf("verdict %s, want %s", got, tc.want)
			}
		})
	}
}

// A regression far beyond the noise is reported even when the runs are
// noisier than the bound.
func TestJudgeNoisyButClearlyWorse(t *testing.T) {
	parent := runs(10, 100, 0.3)
	if got, _ := judge(parent, runs(10, 300, 0.3), true, 0.1); got != regressed {
		t.Fatalf("verdict %s, want %s", got, regressed)
	}
}

func synthetic(workload string, n int, center float64, failed int) []record {
	var out []record
	for i, v := range runs(n, center, 0.02) {
		out = append(out, record{
			Workload: workload, Seed: int64(i + 1), Attempted: 1000, Failed: failed,
			Metrics: map[string]sampledValue{"p50_ms": {Value: v, Unit: "ms"}},
		})
	}
	return out
}

func TestCompareSetsFailRateRise(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	rows, _, err := compareSets(sp, synthetic("w", 10, 100, 0), synthetic("w", 10, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.metric] = r.verdict
	}
	if got["p50_ms"] != unchanged || got["fail_rate"] != regressed {
		t.Fatalf("verdicts %v, want p50_ms unchanged and fail_rate regressed", got)
	}
	var sb strings.Builder
	if code := writeComparison(&sb, rows, nil); code != 1 {
		t.Fatalf("exit code %d for a regression, want 1\n%s", code, sb.String())
	}
}

// The worst MILP gap repeats exactly at a seed, so any rise regresses and
// a workload where it is always 0 gets no row.
func TestCompareSetsGapRise(t *testing.T) {
	sp := &spec{PerLayer: []specMetric{{Name: "milp.gap_max", Unit: "ratio", Better: "lower"}}}
	traced := func(workload string, gaps ...float64) []record {
		var out []record
		for i, g := range gaps {
			out = append(out, record{Workload: workload, Seed: int64(i + 1), Trace: true, Attempted: 1,
				Metrics: map[string]sampledValue{"milp.gap_max": {Value: g}}})
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", []float64{0.2, 0.3}, []float64{0.2, 0.3}, unchanged},
		{"rose at one seed", []float64{0.2, 0.3}, []float64{0.2, 0.31}, regressed},
		{"closed", []float64{0.2, 0.3}, []float64{0.1, 0.3}, improved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, _, err := compareSets(sp, append(traced("milp", tc.parent...), traced("sweep", 0, 0)...),
				append(traced("milp", tc.change...), traced("sweep", 0, 0)...))
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, r := range rows {
				if r.metric == "milp.gap_max" {
					got[r.workload] = r.verdict
				}
			}
			if len(got) != 1 || got["milp"] != tc.want {
				t.Fatalf("gap verdicts %v, want only milp %s", got, tc.want)
			}
		})
	}
}

// Fewer than ten pairs never support a claimed gain.
func TestJudgeNeedsTenPairsToImprove(t *testing.T) {
	if got, _ := judge(runs(5, 100, 0.02), runs(5, 80, 0.02), true, 0.1); got != unchanged {
		t.Fatalf("verdict %s from five pairs, want %s", got, unchanged)
	}
}

func TestCompareSetsNeedsEnoughRuns(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	if _, _, err := compareSets(sp, synthetic("w", 3, 100, 0), synthetic("w", 10, 100, 0)); err == nil {
		t.Fatal("compared 3 parent runs, want an error")
	}
}

// The per-layer metric whose median moved the most is named, and a count
// that differs at the same seed is reported.
func TestCompareSetsNamesLayerThatMoved(t *testing.T) {
	sp := &spec{PerLayer: []specMetric{
		{Name: "a_us", Unit: "us", Better: "lower"},
		{Name: "b_us", Unit: "us", Better: "lower"},
		{Name: "nodes", Unit: "count", Better: "lower"},
	}}
	traced := func(a, b, nodes float64) []record {
		return []record{{Workload: "w", Seed: 1, Trace: true, Attempted: 1, Metrics: map[string]sampledValue{
			"a_us": {Value: a}, "b_us": {Value: b}, "nodes": {Value: nodes},
		}}}
	}
	_, notes, err := compareSets(sp, traced(10, 10, 5), traced(11, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "moved the most: b_us (-60.0%)") || !strings.Contains(joined, "count nodes differs") {
		t.Fatalf("notes do not name b_us and the nodes count:\n%s", joined)
	}
}
