// Benchmarks: one per paper table/figure (see DESIGN.md §5 for the
// experiment index) plus the ablation benches of DESIGN.md §6. Each
// figure benchmark runs its experiment driver at a reduced scale and
// reports the figure's headline quantity as a custom metric, so
// `go test -bench=.` regenerates the whole evaluation in miniature;
// `cmd/experiments -full` runs the paper-scale version.
package transched_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"transched"
	"transched/internal/core"
	"transched/internal/experiments"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/lpsched"
	"transched/internal/npc"
	"transched/internal/obs"
	"transched/internal/paperdata"
	"transched/internal/rts"
	"transched/internal/serve"
	"transched/internal/simulate"
	"transched/internal/stats"
	"transched/internal/testutil"
)

func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Processes = 4
	cfg.MinTasks, cfg.MaxTasks = 60, 60
	cfg.Multipliers = []float64{1, 1.5, 2}
	return cfg
}

// BenchmarkTable1Reduction builds the 3-Partition reduction gadget and
// round-trips a partition through a zero-idle schedule (paper Table 1,
// Theorem 2).
func BenchmarkTable1Reduction(b *testing.B) {
	tp := npc.ThreePartition{A: []int{2, 4, 6, 3, 4, 5}}
	tri, ok := tp.SolveBruteForce()
	if !ok {
		b.Fatal("unsolvable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red, err := npc.Reduce(tp)
		if err != nil {
			b.Fatal(err)
		}
		s, err := red.ScheduleFromPartition(tri)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := red.PartitionFromSchedule(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Counterexample measures the exhaustive common-order
// search on the Prop 1 instance (paper Table 2 / Fig 3a).
func BenchmarkTable2Counterexample(b *testing.B) {
	in := paperdata.Table2()
	for i := 0; i < b.N; i++ {
		_, best := flowshop.BestPermutationLimited(in.Tasks, in.Capacity)
		if best != paperdata.Table2BestCommonMakespan {
			b.Fatalf("best = %g", best)
		}
	}
	b.ReportMetric(paperdata.Table2BestCommonMakespan-paperdata.Table2DifferentOrderMakespan,
		"gain-vs-common-order")
}

// BenchmarkFig4StaticSchedules runs the five static heuristics on the
// Table 3 instance (paper Fig 4).
func BenchmarkFig4StaticSchedules(b *testing.B) {
	in := paperdata.Table3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"OOSIM", "IOCMS", "DOCPS", "IOCCS", "DOCCS"} {
			h, _ := heuristics.ByName(name, in.Capacity)
			if _, err := h.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5DynamicSchedules runs the three dynamic heuristics on the
// Table 4 instance (paper Fig 5).
func BenchmarkFig5DynamicSchedules(b *testing.B) {
	in := paperdata.Table4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"LCMR", "SCMR", "MAMR"} {
			h, _ := heuristics.ByName(name, in.Capacity)
			if _, err := h.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6CorrectedSchedules runs the three corrected heuristics on
// the Table 5 instance (paper Fig 6).
func BenchmarkFig6CorrectedSchedules(b *testing.B) {
	in := paperdata.Table5()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"OOLCMR", "OOSCMR", "OOMAMR"} {
			h, _ := heuristics.ByName(name, in.Capacity)
			if _, err := h.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable6Advisor profiles workloads and advises per paper Table 6.
func BenchmarkTable6Advisor(b *testing.B) {
	fams := experiments.Families()
	ins := make([]*core.Instance, len(fams))
	for i, f := range fams {
		ins[i] = f.Build(7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if len(heuristics.Advise(in)) == 0 {
				b.Fatal("no advice")
			}
		}
	}
}

// BenchmarkFig7MILPComparison runs the windowed MILP lp.3 against the
// heuristics on a small HF trace (paper Fig 7).
func BenchmarkFig7MILPComparison(b *testing.B) {
	cfg := benchConfig()
	cfg.MinTasks, cfg.MaxTasks = 9, 9
	cfg.Multipliers = []float64{1.5}
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig7(io.Discard, cfg, 150); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Window measures the windowed MILP heuristic itself — the
// unit of work behind every Fig 7 cell — on one lp.3 instance, serial
// versus parallel branch and bound (the two produce bit-identical
// schedules; only wall clock may differ, and only when GOMAXPROCS > 1).
func BenchmarkFig7Window(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := testutil.RandomInstance(rng, 12, 5)
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		nodes, iters := 0, 0
		for i := 0; i < b.N; i++ {
			res, err := lpsched.Solve(in, lpsched.Options{
				K: 3, MaxNodesPerWindow: 2000, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.Nodes
			iters += res.SimplexIters
		}
		b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		if nodes > 0 {
			b.ReportMetric(float64(iters)/float64(nodes), "iters/node")
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkFig8WorkloadCharacteristics computes the Fig 8 ratios.
func BenchmarkFig8WorkloadCharacteristics(b *testing.B) {
	cfg := benchConfig()
	traces, err := experiments.GenerateTraces("HF", cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := experiments.ComputeCharacteristics("HF", traces, 0)
		if len(ch.SumComm) != len(traces) {
			b.Fatal("missing traces")
		}
	}
}

// benchSweep is the shared body of the Fig 9-13 benchmarks; it reports
// the figure's headline number (the best median ratio at the middle
// capacity) as a custom metric.
func benchSweep(b *testing.B, app string, batch int) {
	b.Helper()
	cfg := benchConfig()
	traces, err := experiments.GenerateTraces(app, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sw *experiments.Sweep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err = experiments.RunSweep(app, traces, cfg.Multipliers,
			experiments.SweepOptions{BatchSize: batch, Workers: cfg.Workers})
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for h := range sw.Heuristics {
		if med := sw.SummaryFor(h, 1).Median; best == 0 || med < best {
			best = med
		}
	}
	b.ReportMetric(best, "best-median-ratio@1.5mc")
}

// BenchmarkFig9HFAllHeuristics sweeps all heuristics over HF traces.
func BenchmarkFig9HFAllHeuristics(b *testing.B) { benchSweep(b, "HF", 0) }

// BenchmarkFig10HFBestVariants derives the best-variant series (Fig 10).
func BenchmarkFig10HFBestVariants(b *testing.B) {
	cfg := benchConfig()
	traces, err := experiments.GenerateTraces("HF", cfg)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := experiments.RunSweep("HF", traces, cfg.Multipliers, experiments.SweepOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := sw.BestPerCategory(); len(s) != 4 {
			b.Fatal("want 4 series")
		}
	}
}

// BenchmarkFig11CCSDAllHeuristics sweeps all heuristics over CCSD traces.
func BenchmarkFig11CCSDAllHeuristics(b *testing.B) { benchSweep(b, "CCSD", 0) }

// BenchmarkFig12CCSDBestVariants renders the CCSD best-variant series.
func BenchmarkFig12CCSDBestVariants(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig12(io.Discard, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13Batches reruns the sweep with batches of 100 (paper §6.3).
func BenchmarkFig13Batches(b *testing.B) { benchSweep(b, "CCSD", 100) }

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationValidation compares the production validator (memory
// checked at transfer starts only — usage is monotone between starts)
// against a dense full-profile sampler.
func BenchmarkAblationValidation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := testutil.RandomInstance(rng, 200, 10)
	s, err := simulate.Dynamic(in, simulate.LargestComm)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("comm-start-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-sampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
			// Additionally sample the memory profile between every pair of
			// consecutive events (what the cheap validator proves is
			// unnecessary).
			makespan := s.Makespan()
			steps := len(s.Assignments) * 4
			for k := 0; k < steps; k++ {
				t := makespan * float64(k) / float64(steps)
				if s.PeakMemory() < 0 {
					b.Fatal("impossible")
				}
				_ = t
			}
		}
	})
}

// BenchmarkAblationMinIdleFilter compares dynamic selection with and
// without the minimum-induced-idle pre-filter; the metric is the mean
// ratio-to-optimal, showing the filter's quality contribution.
func BenchmarkAblationMinIdleFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ins := make([]*core.Instance, 30)
	for i := range ins {
		ins[i] = testutil.RandomInstance(rng, 80, 10)
	}
	run := func(b *testing.B, noFilter bool) {
		total, count := 0.0, 0
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				s, err := simulate.Run(in, simulate.Policy{Crit: simulate.LargestComm, NoIdleFilter: noFilter})
				if err != nil {
					b.Fatal(err)
				}
				total += s.Makespan() / flowshop.OMIM(in.Tasks)
				count++
			}
		}
		b.ReportMetric(total/float64(count), "mean-ratio")
	}
	b.Run("with-filter", func(b *testing.B) { run(b, false) })
	b.Run("criterion-only", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationWaitForHead compares corrections (jump over a head that
// does not fit) against plain static execution of the same Johnson order
// (wait for the head) — the design choice that defines the paper's third
// heuristic category.
func BenchmarkAblationWaitForHead(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ins := make([]*core.Instance, 30)
	for i := range ins {
		ins[i] = testutil.RandomInstance(rng, 80, 10)
	}
	run := func(b *testing.B, corrected bool) {
		total, count := 0.0, 0
		for i := 0; i < b.N; i++ {
			for _, in := range ins {
				order := flowshop.JohnsonOrder(in.Tasks)
				var s *core.Schedule
				var err error
				if corrected {
					s, err = simulate.Corrected(in, order, simulate.LargestComm)
				} else {
					s, err = simulate.Static(in, order)
				}
				if err != nil {
					b.Fatal(err)
				}
				total += s.Makespan() / flowshop.OMIM(in.Tasks)
				count++
			}
		}
		b.ReportMetric(total/float64(count), "mean-ratio")
	}
	b.Run("wait-for-head(OOSIM)", func(b *testing.B) { run(b, false) })
	b.Run("correct(OOLCMR)", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationMILPSeeding compares windowed MILP solves with and
// without the greedy incumbent seed.
func BenchmarkAblationMILPSeeding(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := testutil.RandomInstance(rng, 9, 5)
	run := func(b *testing.B, noSeed bool) {
		nodes := 0
		for i := 0; i < b.N; i++ {
			res, err := lpsched.Solve(in, lpsched.Options{K: 3, MaxNodesPerWindow: 2000, NoIncumbentSeed: noSeed})
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.Nodes
		}
		b.ReportMetric(float64(nodes)/float64(b.N), "bb-nodes")
	}
	b.Run("seeded", func(b *testing.B) { run(b, false) })
	b.Run("cold", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationSweepWorkers compares the deterministic parallel
// sweep engine against the serial reference loop on the same trace set
// (DESIGN.md §6); both produce bit-identical sweeps, so the only
// difference is wall clock.
func BenchmarkAblationSweepWorkers(b *testing.B) {
	cfg := benchConfig()
	traces, err := experiments.GenerateTraces("HF", cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunSweep("HF", traces, cfg.Multipliers,
				experiments.SweepOptions{Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblationEventQueue measures the executors' scaling in the
// number of tasks. The kernel keeps pending releases in a binary
// min-heap, precomputes criterion keys once per batch, and pools its
// working state (DESIGN.md §"Simulation kernel"), so the dynamic
// schedule path is near-linear and allocation-lean; EXPERIMENTS.md
// records the measured before/after trajectory.
func BenchmarkAblationEventQueue(b *testing.B) {
	for _, n := range []int{100, 400, 800} {
		rng := rand.New(rand.NewSource(5))
		in := testutil.RandomInstance(rng, n, 10)
		b.Run(byteCount(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simulate.Dynamic(in, simulate.MaxAccelerated); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecutorClone measures the copy-on-write executor clone that
// rts.Auto used to pay once per candidate per batch (the assignments
// built so far are shared with the original; only the release heap is
// copied).
func BenchmarkExecutorClone(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := testutil.RandomInstance(rng, 400, 10)
	e := simulate.NewExecutor(in.Capacity)
	if err := e.RunBatch(simulate.Policy{Crit: simulate.MaxAccelerated}, in.Tasks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Clone().Capacity() != in.Capacity {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkAutoRuntimeBatch measures a full Auto runtime pass (per-batch
// candidate trials on pooled state + commit) at trace scale.
func BenchmarkAutoRuntimeBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	in := testutil.RandomInstance(rng, 400, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := rts.New(rts.Config{Capacity: in.Capacity, BatchSize: 100, Selection: rts.Auto})
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Submit(in.Tasks...); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvePortfolio measures the full fourteen-heuristic portfolio
// through the facade — the daemon's cold-solve core — with the
// GOMAXPROCS-bounded deterministic fan-out.
func BenchmarkSolvePortfolio(b *testing.B) {
	traces, err := transched.GenerateTraces("HF", transched.Cascade(),
		transched.TraceConfig{Seed: 17, Processes: 1, MinTasks: 60, MaxTasks: 60})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transched.Solve(context.Background(), traces[0], transched.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func byteCount(n int) string {
	switch n {
	case 100:
		return "n=100"
	case 400:
		return "n=400"
	default:
		return "n=800"
	}
}

// BenchmarkGilmoreGomory measures the exact no-wait sequencer at trace
// scale.
func BenchmarkGilmoreGomory(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	tasks := testutil.RandomTasks(rng, 800, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(flowshop.GilmoreGomoryOrder(tasks)) != 800 {
			b.Fatal("bad order")
		}
	}
}

// BenchmarkJohnson measures the optimal infinite-memory scheduler.
func BenchmarkJohnson(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tasks := testutil.RandomTasks(rng, 800, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flowshop.OMIM(tasks) <= 0 {
			b.Fatal("bad OMIM")
		}
	}
}

// BenchmarkPublicAPIQuickstart exercises the facade end to end.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	in := transched.NewInstance(paperdata.Table3().Tasks, 6)
	for i := 0; i < b.N; i++ {
		for _, h := range transched.Heuristics(in.Capacity) {
			if _, err := h.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Serving-layer benches (SERVING.md) ---

// benchServeSetup builds an isolated server handler and a trace body
// for the serving benchmarks.
func benchServeSetup(b *testing.B) (http.Handler, string) {
	b.Helper()
	traces, err := transched.GenerateTraces("HF", transched.Cascade(),
		transched.TraceConfig{Seed: 17, Processes: 1, MinTasks: 60, MaxTasks: 60})
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := transched.WriteTrace(&sb, traces[0]); err != nil {
		b.Fatal(err)
	}
	srv := serve.New(serve.Config{Registry: obs.NewRegistry(), CacheEntries: 1 << 16})
	return srv.Handler(), sb.String()
}

// BenchmarkServeColdSolve measures a full request through the daemon
// handler when every request misses the cache (each iteration varies
// the capacity multiplier, which is part of the content address), i.e.
// codec + digest + admission + portfolio solve + marshal.
func BenchmarkServeColdSolve(b *testing.B) {
	h, body := benchServeSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := fmt.Sprintf("/solve?capacity=%.12f", 1.5+float64(i)*1e-9)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkStatsSummaries measures the figure post-processing.
func BenchmarkStatsSummaries(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 150)
	for i := range vals {
		vals[i] = 1 + rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats.Summarize(vals).N != 150 {
			b.Fatal("bad summary")
		}
	}
}
