// Package experiments regenerates the paper's evaluation (§5–6): the
// capacity sweeps behind Figs 9–13, the workload-characteristics plot of
// Fig 8, the MILP comparison of Fig 7, and the Table 6 favorable-situation
// study. Each driver writes the data a figure plots — five-number
// summaries per heuristic and capacity, or per-capacity series of the
// best variant per category — as text tables and ASCII boxplots.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/obs"
	"transched/internal/par"
	"transched/internal/simulate"
	"transched/internal/stats"
	"transched/internal/trace"
)

// DefaultMultipliers is the paper's capacity grid: mc to 2mc in steps of
// 0.125mc (§6).
func DefaultMultipliers() []float64 {
	out := make([]float64, 0, 9)
	for m := 1.0; m <= 2.0+1e-9; m += 0.125 {
		out = append(out, m)
	}
	return out
}

// Config selects the workload size for the experiment drivers. The
// defaults reproduce the paper's setup (150 processes, 300-800 tasks);
// smaller values keep the drivers fast for tests and benchmarks.
type Config struct {
	Machine   cluster.Machine
	Seed      int64
	Processes int
	MinTasks  int
	MaxTasks  int
	// Multipliers of mc to sweep; nil means DefaultMultipliers.
	Multipliers []float64
	// BatchSize > 0 schedules in submission batches (Fig 13 uses 100).
	BatchSize int
	// Workers bounds the worker pool the experiment drivers fan out on:
	// 0 uses every core (runtime.GOMAXPROCS), 1 reproduces the serial
	// reference path. Output is bit-identical at every worker count.
	Workers int
	// Trace, when non-nil, collects per-cell execution spans from the
	// sweep drivers for Chrome trace-event export (`cmd/experiments
	// -trace-out`). Spans describe the run, never its results: output
	// stays bit-identical with tracing on or off.
	Trace *obs.Trace
	// Metrics, when non-nil, receives sweep counters and cell-duration
	// histograms (`cmd/experiments -debug-addr` serves them).
	Metrics *obs.Registry
}

func (c Config) multipliers() []float64 {
	if len(c.Multipliers) == 0 {
		return DefaultMultipliers()
	}
	return c.Multipliers
}

// DefaultConfig is the paper-scale setup.
func DefaultConfig() Config {
	return Config{Machine: cluster.Cascade(), Seed: 20190415} // arXiv date of the paper
}

// QuickConfig is a reduced setup for tests and benchmarks.
func QuickConfig() Config {
	return Config{
		Machine:   cluster.Cascade(),
		Seed:      20190415,
		Processes: 12,
		MinTasks:  60,
		MaxTasks:  120,
	}
}

// Sweep holds ratio-to-optimal samples for every heuristic and capacity
// multiplier. Ratios[h][m][t] is *positionally* trace t: slot t of
// Ratios[h][m] always belongs to traces[t], regardless of the worker
// count the sweep ran with, so serial and parallel sweeps are
// bit-identical.
type Sweep struct {
	App         string
	Heuristics  []string
	Multipliers []float64
	// MeanCapacity[m] is the mean absolute capacity at multiplier m
	// (the x-axis of Figs 10, 12, 13).
	MeanCapacity []float64
	Ratios       [][][]float64
	// Categories[h] is the category of Heuristics[h].
	Categories []heuristics.Category
}

// SweepOptions controls how RunSweep executes.
type SweepOptions struct {
	// BatchSize > 0 schedules each trace in submission batches of that
	// size (Fig 13 uses 100).
	BatchSize int
	// Workers bounds the worker pool: 0 uses every core, 1 runs the
	// serial reference path. Results are identical either way.
	Workers int
	// Heuristics selects a subset by acronym; nil means all fourteen in
	// figure order. Unknown names fail before any scheduling starts.
	Heuristics []string
	// Trace, when non-nil, receives one span per (trace, multiplier)
	// cell — labelled with the worker id, trace name, multiplier and
	// heuristic set — so pool utilization and stragglers are visible in
	// Perfetto. Nil (the default) records nothing and skips even the
	// clock reads; results are bit-identical either way.
	Trace *obs.Trace
	// Metrics, when non-nil, receives the sweep_cells_total counter,
	// sweep_tasks_scheduled_total counter and sweep_cell_seconds
	// histogram. Nil disables all metric updates.
	Metrics *obs.Registry
}

// RunSweep evaluates every heuristic at every capacity on every trace.
// The sweep fans the independent (trace, multiplier) cells out on
// opts.Workers goroutines; every result is written to a preallocated,
// index-addressed slot, so the output is bit-identical at every worker
// count and the first failing cell cancels the remaining work. Each
// heuristic's capacity-free work is planned once per trace and shared by
// the trace's nine cells (tracePlans).
func RunSweep(app string, traces []*trace.Trace, multipliers []float64, opts SweepOptions) (*Sweep, error) {
	sc, err := newSweepCells(app, traces, multipliers, opts.Heuristics)
	if err != nil {
		return nil, err
	}
	sw, names := sc.sw, sc.sw.Heuristics

	// Optional telemetry. The tracer's slots are preallocated and
	// index-addressed exactly like the result slots, so recording obeys
	// the same each-cell-writes-only-its-own-slot discipline; metric
	// updates are atomic counter adds. Neither feeds Ratios, so output
	// is bit-identical with instrumentation on or off.
	nm := len(multipliers)
	var cellTracer *obs.SweepTracer
	heurList := strings.Join(names, ",")
	if opts.Trace.Enabled() {
		cellTracer = obs.NewSweepTracer(fmt.Sprintf("%s sweep (%d traces × %d capacities)",
			app, len(traces), nm), len(traces)*nm)
	}
	var cellsDone, tasksDone *obs.Counter
	var cellSeconds *obs.Histogram
	if opts.Metrics != nil {
		cellsDone = opts.Metrics.Counter("sweep_cells_total")
		tasksDone = opts.Metrics.Counter("sweep_tasks_scheduled_total")
		cellSeconds = opts.Metrics.Histogram("sweep_cell_seconds", obs.DefaultBuckets())
	}
	instrumented := cellTracer.Enabled() || opts.Metrics != nil

	// One work unit per (trace, multiplier) cell: the unit runs every
	// heuristic's plan for its trace at its capacity and writes only the
	// slots indexed by its own (m, t) pair.
	plans := newTracePlans(len(traces), nm)
	err = par.ForEachIndexErr(opts.Workers, len(traces)*nm, func(worker, u int) error {
		t, m := u/nm, u%nm
		tr := traces[t]
		mult := multipliers[m]
		var begin time.Time
		if instrumented {
			begin = time.Now() //transched:allow-clock span timestamp for telemetry; never feeds Ratios
		}
		capacity := sc.mcs[t] * mult
		for h, plan := range plans[t].get(tr.Tasks, opts.BatchSize, sc.pols) {
			span, err := plan.Makespan(capacity)
			if err != nil {
				return fmt.Errorf("experiments: %s on %s/%d at %gx: %w",
					names[h], tr.App, tr.Process, mult, err)
			}
			sw.Ratios[h][m][t] = span / sc.omims[t]
		}
		plans[t].done()
		if instrumented {
			end := time.Now() //transched:allow-clock span timestamp for telemetry; never feeds Ratios
			traceName := fmt.Sprintf("%s/%d", tr.App, tr.Process)
			cellTracer.Record(u, obs.CellSpan{
				Name:       fmt.Sprintf("%s ×%.3f", traceName, mult),
				Worker:     worker,
				Start:      begin,
				End:        end,
				Trace:      traceName,
				Multiplier: mult,
				Heuristics: heurList,
			})
			if opts.Metrics != nil {
				cellsDone.Inc()
				tasksDone.Add(int64(len(tr.Tasks) * len(names)))
				cellSeconds.Observe(end.Sub(begin).Seconds())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cellTracer.Enabled() {
		cellTracer.AppendTo(opts.Trace, opts.Trace.NextPID())
	}
	return sw, nil
}

// sweepCells is what both sweep drivers resolve before their first
// cell: the preallocated result, the selected heuristics' policies, and
// each trace's mc and OMIM.
type sweepCells struct {
	sw         *Sweep
	pols       []simulate.Policy
	mcs, omims []float64
}

// newSweepCells resolves the selected heuristics (nil means all fourteen
// in figure order) before any scheduling, so an unknown name fails fast
// instead of surfacing len(traces)×len(multipliers) cells into the
// sweep. mc and OMIM are capacity-independent, so they are computed once
// per trace, and the mean capacity is a single deterministic
// sum-then-divide rather than a running mean whose rounding would depend
// on iteration order.
func newSweepCells(app string, traces []*trace.Trace, multipliers []float64, selected []string) (*sweepCells, error) {
	names := selected
	if len(names) == 0 {
		names = heuristics.Names()
	}
	sc := &sweepCells{
		sw: &Sweep{
			App:          app,
			Heuristics:   names,
			Multipliers:  multipliers,
			MeanCapacity: make([]float64, len(multipliers)),
			Ratios:       make([][][]float64, len(names)),
			Categories:   make([]heuristics.Category, len(names)),
		},
		pols:  make([]simulate.Policy, len(names)),
		mcs:   make([]float64, len(traces)),
		omims: make([]float64, len(traces)),
	}
	for h, name := range names {
		heur, err := heuristics.ByName(name, 1)
		if err != nil {
			return nil, err
		}
		sc.sw.Categories[h], sc.pols[h] = heur.Category, heur.Policy
	}
	sumMC := 0.0
	for t, tr := range traces {
		sc.mcs[t] = tr.MinCapacity()
		sc.omims[t] = flowshop.OMIM(tr.Tasks)
		if sc.omims[t] <= 0 {
			return nil, fmt.Errorf("experiments: trace %s/%d has zero OMIM", tr.App, tr.Process)
		}
		sumMC += sc.mcs[t]
	}
	meanMC := sumMC / float64(len(traces))
	for m, mult := range multipliers {
		sc.sw.MeanCapacity[m] = meanMC * mult
	}
	for h := range names {
		sc.sw.Ratios[h] = make([][]float64, len(multipliers))
		for m := range multipliers {
			sc.sw.Ratios[h][m] = make([]float64, len(traces))
		}
	}
	return sc, nil
}

// tracePlans holds one trace's capacity-free plans, one per heuristic.
// The first of the trace's cells to run builds them, so its span covers
// that work; the trace's other cells wait for them and share them
// read-only; the last cell to finish drops them, so a sweep holds only
// the plans of the traces in flight.
type tracePlans struct {
	once  sync.Once
	plans []*simulate.Plan
	left  atomic.Int32 // cells of the trace still to finish
}

func newTracePlans(traces, cellsPerTrace int) []tracePlans {
	tps := make([]tracePlans, traces)
	for t := range tps {
		tps[t].left.Store(int32(cellsPerTrace))
	}
	return tps
}

// get returns the trace's plans, building them on first use.
func (tp *tracePlans) get(tasks []core.Task, batchSize int, pols []simulate.Policy) []*simulate.Plan {
	tp.once.Do(func() {
		tp.plans = make([]*simulate.Plan, len(pols))
		for h, p := range pols {
			tp.plans[h] = simulate.NewPlan(tasks, batchSize, p)
		}
	})
	return tp.plans
}

// done marks one of the trace's cells finished with the plans.
func (tp *tracePlans) done() {
	if tp.left.Add(-1) == 0 {
		tp.plans = nil
	}
}

// SummaryFor returns the five-number summary for one heuristic at one
// multiplier index.
func (sw *Sweep) SummaryFor(h, m int) stats.Summary { return stats.Summarize(sw.Ratios[h][m]) }

// BestPerCategory returns, for each capacity multiplier, the best
// (lowest-median) heuristic of each category, as the paper's "best
// variant" plots do; the OS baseline is always its own series.
func (sw *Sweep) BestPerCategory() []stats.Series {
	cats := []heuristics.Category{
		heuristics.Baseline, heuristics.Static, heuristics.Dynamic, heuristics.Corrected,
	}
	labels := map[heuristics.Category]string{
		heuristics.Baseline:  "OS",
		heuristics.Static:    "Best Static",
		heuristics.Dynamic:   "Best Dynamic",
		heuristics.Corrected: "Best StatDyn",
	}
	series := make([]stats.Series, 0, len(cats))
	for _, cat := range cats {
		s := stats.Series{Name: labels[cat], X: sw.MeanCapacity}
		for m := range sw.Multipliers {
			best := math.Inf(1)
			for h := range sw.Heuristics {
				if sw.Categories[h] != cat {
					continue
				}
				if med := sw.SummaryFor(h, m).Median; med < best {
					best = med
				}
			}
			s.Y = append(s.Y, best)
		}
		series = append(series, s)
	}
	return series
}

// Render writes one block per capacity with a table and a boxplot, the
// textual equivalent of Figs 9 and 11.
func (sw *Sweep) Render(w io.Writer) error {
	for m, mult := range sw.Multipliers {
		names := sw.Heuristics
		sums := make([]stats.Summary, len(names))
		for h := range names {
			sums[h] = sw.SummaryFor(h, m)
		}
		title := fmt.Sprintf("%s: ratio to optimal at capacity %.3f mc (mean %.4g)",
			sw.App, mult, sw.MeanCapacity[m])
		if _, err := io.WriteString(w, stats.Table(title, names, sums)); err != nil {
			return err
		}
		if _, err := io.WriteString(w, stats.BoxPlot(names, sums, 60)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// GenerateTraces builds the configured trace set for an application.
func GenerateTraces(app string, cfg Config) ([]*trace.Trace, error) {
	return chem.Generate(app, cfg.Machine, chem.Config{
		Seed:      cfg.Seed,
		Processes: cfg.Processes,
		MinTasks:  cfg.MinTasks,
		MaxTasks:  cfg.MaxTasks,
	})
}

// Characteristics holds the Fig 8 quantities for one trace set, each
// normalised to OMIM; slot t of every slice is positionally trace t.
type Characteristics struct {
	App                            string
	SumComm, SumComp, MaxSums, Sum []float64
}

// ComputeCharacteristics evaluates the Fig 8 ratios for every trace,
// fanning the independent per-trace computations out on workers
// goroutines (0 = all cores, 1 = serial) with index-addressed writes.
func ComputeCharacteristics(app string, traces []*trace.Trace, workers int) Characteristics {
	ch := Characteristics{
		App:     app,
		SumComm: make([]float64, len(traces)),
		SumComp: make([]float64, len(traces)),
		MaxSums: make([]float64, len(traces)),
		Sum:     make([]float64, len(traces)),
	}
	// The per-trace body cannot fail, so the pool cannot either.
	_ = par.ForEachIndexErr(workers, len(traces), func(_, t int) error {
		in := traces[t].Instance(math.Inf(1))
		omim := flowshop.OMIM(in.Tasks)
		ch.SumComm[t] = in.SumComm() / omim
		ch.SumComp[t] = in.SumComp() / omim
		ch.MaxSums[t] = in.ResourceLowerBound() / omim
		ch.Sum[t] = in.SequentialMakespan() / omim
		return nil
	})
	return ch
}

// Render writes the Fig 8 table for one application.
func (ch Characteristics) Render(w io.Writer) error {
	names := []string{"sum comm", "sum comp", "max(sums)", "sum comm+comp"}
	sums := []stats.Summary{
		stats.Summarize(ch.SumComm),
		stats.Summarize(ch.SumComp),
		stats.Summarize(ch.MaxSums),
		stats.Summarize(ch.Sum),
	}
	title := fmt.Sprintf("%s workload characteristics (ratio to OMIM)", ch.App)
	if _, err := io.WriteString(w, stats.Table(title, names, sums)); err != nil {
		return err
	}
	_, err := io.WriteString(w, stats.BoxPlot(names, sums, 60)+"\n")
	return err
}
