package main

import (
	"fmt"
	"sort"
	"time"

	"transched/internal/heuristics"
	"transched/internal/obs"
	"transched/internal/stats"
)

// metricDef names one metric and its unit. BENCHMARK.json at the root of
// the repository lists the same metrics with their direction and, for
// the end-to-end ones, the bound a change may worsen them by.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user sees; every workload reports all of
// them in an untraced run (README.md defines each per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics of single modules; every workload reports all
// of them in a traced run, 0 for a module it never calls into.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"chem.generate_ms", "ms"},
		{"go.heap_peak_mb", "MB"},
		{"go.gc_cycles", "cycles"},
		{"trace.read_us_p50", "us"},
		{"trace.write_us_p50", "us"},
		{"serve.digest_us_p50", "us"},
		{"serve.hit_allocs", "count"},
	}
	for _, st := range serveStages {
		defs = append(defs,
			metricDef{"serve.stage." + st + "_ms_p50", "ms"},
			metricDef{"serve.stage." + st + "_ms_p99", "ms"})
	}
	defs = append(defs,
		metricDef{"serve.stage_coverage", "ratio"},
		metricDef{"serve.net_ms_p50", "ms"},
		metricDef{"serve.hit_rate", "ratio"},
		metricDef{"serve.hit_ms_p50", "ms"},
		metricDef{"serve.miss_ms_p50", "ms"},
		metricDef{"serve.miss_ms_p90", "ms"},
		metricDef{"serve.gen_late_ms_p99", "ms"},
		metricDef{"serve.trace_overhead_ms_p50", "ms"},
		metricDef{"flowshop.omim_us_p50", "us"},
		metricDef{"heuristics.advise_us_p50", "us"},
		metricDef{"core.validate_us_p50", "us"},
		metricDef{"transched.portfolio_efficiency", "ratio"},
	)
	for _, h := range heuristics.Names() {
		defs = append(defs, metricDef{"heuristics.run_us." + h, "us"})
	}
	return append(defs,
		metricDef{"simulate.static_us_p50", "us"},
		metricDef{"simulate.dynamic_us_p50", "us"},
		metricDef{"simulate.corrected_us_p50", "us"},
		metricDef{"simulate.batches_us_p50", "us"},
		metricDef{"simulate.allocs_per_run", "count"},
		metricDef{"rts.submit_us_p50", "us"},
		metricDef{"rts.close_us_p50", "us"},
		metricDef{"rts.trials", "count"},
		metricDef{"experiments.cell_ms_p50", "ms"},
		metricDef{"experiments.cell_ms_p99", "ms"},
		metricDef{"experiments.cells", "count"},
		metricDef{"experiments.pool_efficiency", "ratio"},
		metricDef{"lpsched.solve_ms_p50", "ms"},
		metricDef{"lpsched.windows", "count"},
		metricDef{"lpsched.fallbacks", "count"},
		metricDef{"milp.gap_max", "ratio"},
		metricDef{"milp.gap_mean", "ratio"},
		metricDef{"milp.nodes", "count"},
		metricDef{"lp.iters_per_node", "count"},
		metricDef{"milp.nodes_per_s", "1/s"},
		metricDef{"milp.parallel_speedup", "ratio"},
	)
}()

// serveStages are the request stages the daemon reports in
// X-Transched-Timing that this benchmark's traffic exercises (no router,
// micro-batching or disk store in the shipped defaults).
var serveStages = []string{"decode", "queue", "cache", "solve", "encode"}

// run is one workload execution: the operations attempted, the checks
// that failed, the metrics measured and, in a traced run, the spans.
type run struct {
	seed   int64
	budget time.Duration
	cores  int
	spans  *spans // nil unless traced
	// chrome, when non-nil, receives trace events the modules record
	// themselves (the daemon's request tracer) next to the spans.
	chrome  *obs.Trace
	values  map[string]float64
	samples map[string]int

	attempted, failed int
	// broken is set by a failed check that is not one operation's output
	// (a golden digest, a layer reconciliation identity).
	broken   bool
	problems []string
}

func newRun(seed int64, budget time.Duration, cores int, traced bool) *run {
	r := &run{
		seed: seed, budget: budget, cores: cores,
		values: map[string]float64{}, samples: map[string]int{},
	}
	if traced {
		r.spans = newSpans()
	}
	return r
}

// op counts one attempted operation whose output check returned err.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err)
	}
}

// fail records a failed check that is not tied to one operation.
func (r *run) fail(err error) {
	r.broken = true
	r.note(err)
}

func (r *run) note(err error) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *run) correct() bool { return r.failed == 0 && !r.broken }

// set records a metric measured over n samples (1 for a single value).
func (r *run) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// setQuantile records the q-quantile of durations in the given unit.
func (r *run) setQuantile(name string, ds []time.Duration, q float64, unit time.Duration) {
	r.set(name, quantile(ds, q)/float64(unit), len(ds))
}

// reconcile checks a layer identity: the layer spans must sum to within
// ±10 % of the end-to-end time they make up.
func (r *run) reconcile(layer string, spans, total time.Duration) {
	if total <= 0 {
		r.fail(fmt.Errorf("reconcile %s: no end-to-end time measured", layer))
		return
	}
	if ratio := float64(spans) / float64(total); ratio < 0.9 || ratio > 1.1 {
		r.fail(fmt.Errorf("reconcile %s: layer spans sum to %v, %.3f of the end-to-end %v (want within ±10%%)",
			layer, spans, ratio, total))
	}
}

// quantile is the nearest-rank q-quantile of ds in nanoseconds.
func quantile(ds []time.Duration, q float64) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	sort.Float64s(v)
	return stats.NearestRank(v, q)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// throughput is operations per second of busy time.
func throughput(ds []time.Duration) float64 {
	if t := sum(ds); t > 0 {
		return float64(len(ds)) / t.Seconds()
	}
	return 0
}
