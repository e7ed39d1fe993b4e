// Package stats aggregates experiment results the way the paper's figures
// do: for each heuristic and memory capacity, a five-number summary
// (minimum, quartiles, maximum) of the ratio-to-optimal across the 150
// trace files — the information content of the paper's boxplots — plus
// simple text renderings.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary is a five-number summary with the sample mean.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Summarize computes the five-number summary of the values. Quartiles use
// linear interpolation between order statistics (type 7, the R default,
// which is also what ggplot boxplots show).
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return Summary{
		N:      len(v),
		Min:    v[0],
		Q1:     Quantile(v, 0.25),
		Median: Quantile(v, 0.5),
		Q3:     Quantile(v, 0.75),
		Max:    v[len(v)-1],
		Mean:   sum / float64(len(v)),
	}
}

// Quantile returns the p-quantile (0 <= p <= 1) of sorted values using
// linear interpolation.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Rank returns the 1-based nearest rank of the q-quantile in a sample of
// n observations: ceil(q*n), clamped to [1, n]. q outside [0, 1] clamps
// too. This is the one rank rule shared by the obs histogram quantiles,
// the bench module's latency reports and this package — previously each
// re-derived it by hand with off-by-one disagreements at the edges.
// Returns 0 when n <= 0 (no observations have no rank).
func Rank(n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// NearestRank returns the q-quantile of sorted values by the nearest-rank
// rule (the Rank helper): the observation at position ceil(q*n). Unlike
// Quantile it never interpolates, so the result is always a sample value.
// Returns 0 for an empty sample, matching what the latency reports print
// when nothing was observed.
func NearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[Rank(int64(n), q)-1]
}

// KendallTau returns Kendall's tau-a rank correlation between two paired
// samples: (concordant - discordant) / (n*(n-1)/2) over all pairs, with
// ties contributing zero. 1 means identical ranking, -1 fully reversed.
// The robustness sweep uses it to quantify how stable the heuristic
// ranking stays as duration noise grows. Returns 0 when n < 2 or the
// lengths differ (no pairs to compare).
func KendallTau(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	score := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da*db > 0:
				score++
			case da*db < 0:
				score--
			}
		}
	}
	return float64(score) / float64(n*(n-1)/2)
}

// Outliers returns the values outside the 1.5*IQR whiskers, matching what
// boxplots draw as dots.
func Outliers(values []float64) []float64 {
	s := Summarize(values)
	iqr := s.Q3 - s.Q1
	lo, hi := s.Q1-1.5*iqr, s.Q3+1.5*iqr
	var out []float64
	for _, v := range values {
		if v < lo || v > hi {
			out = append(out, v)
		}
	}
	return out
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4f q1=%.4f med=%.4f q3=%.4f max=%.4f mean=%.4f",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// Table renders rows of named summaries as an aligned text table.
func Table(title string, names []string, summaries []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %5s %9s %9s %9s %9s %9s %9s\n",
		"heuristic", "n", "min", "q1", "median", "q3", "max", "mean")
	for i, name := range names {
		s := summaries[i]
		fmt.Fprintf(&b, "%-10s %5d %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n",
			name, s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
	}
	return b.String()
}

// BoxPlot renders an ASCII boxplot per row over the given value range.
// Each row shows min/max as whiskers, the interquartile box, and the
// median marker:
//
//	OOSIM     |----[==|=====]--------|   1.0234
func BoxPlot(names []string, summaries []Summary, width int) string {
	if width < 20 {
		width = 60
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range summaries {
		if s.N == 0 {
			continue
		}
		lo = math.Min(lo, s.Min)
		hi = math.Max(hi, s.Max)
	}
	if math.IsInf(lo, 1) || hi == lo {
		hi, lo = lo+1, lo-1e-9
	}
	scale := func(v float64) int {
		x := int(math.Round((v - lo) / (hi - lo) * float64(width-1)))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		return x
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %s  [%.4f .. %.4f]\n", "", strings.Repeat(" ", width), lo, hi)
	for i, s := range summaries {
		row := []byte(strings.Repeat(" ", width))
		if s.N > 0 {
			for x := scale(s.Min); x <= scale(s.Max); x++ {
				row[x] = '-'
			}
			for x := scale(s.Q1); x <= scale(s.Q3); x++ {
				row[x] = '='
			}
			row[scale(s.Min)] = '|'
			row[scale(s.Max)] = '|'
			row[scale(s.Q1)] = '['
			row[scale(s.Q3)] = ']'
			row[scale(s.Median)] = '#'
		}
		fmt.Fprintf(&b, "%-10s %s  med=%.4f\n", names[i], string(row), s.Median)
	}
	return b.String()
}

// Series is one named line of (x, y) points, e.g. a heuristic's median
// ratio as a function of memory capacity (Figs 10, 12, 13).
type Series struct {
	Name string
	X, Y []float64
}

// SeriesTable renders several series sharing the same X axis as columns.
func SeriesTable(title, xlabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s", title, xlabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	fmt.Fprintln(&b)
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&b, "%-14.6g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %14.4f", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
