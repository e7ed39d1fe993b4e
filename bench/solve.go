package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"transched"
	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/rts"
	"transched/internal/trace"
)

// solveWorkload is the CLI path with one caller in a closed loop: the
// paper-scale traces rendered to v1 text, and for each one trace.Read,
// transched.Solve with the fourteen-heuristic portfolio at 1.5 mc, then
// transched.Solve again through the online runtime in batches of 100
// (rts.Auto). One operation is all three calls on one trace.
type solveWorkload struct {
	bodies []string
	// first[i] is the (portfolio, batched) makespan pair of body i's
	// first solve; every later solve, on any number of cores, must match.
	first []*[2]float64
}

func (w *solveWorkload) close() {}

// solveBlock is the number of traces a run measures, pass after pass:
// the first of the spread order, half of them HF and half CCSD. Their
// lengths cover each application's range evenly whatever the seed,
// while all 300 would bring the seed's own length distribution with
// them: the median operation then spread by 5–7 % over ten seeds,
// against under 2 % with these.
const solveBlock = 200

func (w *solveWorkload) setup(r *run) error {
	traces, bodies, err := renderTraces(r)
	if err != nil {
		return err
	}
	w.bodies = nil
	for _, t := range spreadOrder(traces) {
		w.bodies = append(w.bodies, bodies[t])
	}
	w.first = make([]*[2]float64, len(bodies))
	for i := 0; i < 8; i++ {
		w.solveChecked(r, i)
	}
	return nil
}

// generateTraces generates the 150 HF and 150 CCSD paper-scale traces
// for the run's seed.
func generateTraces(r *run) ([]*trace.Trace, error) {
	var all []*trace.Trace
	var gen time.Duration
	for _, app := range []string{"HF", "CCSD"} {
		var traces []*trace.Trace
		var err error
		gen += r.spans.timed("chem.Generate", 0, -1, func() {
			traces, err = chem.Generate(app, cluster.Cascade(), chem.Config{Seed: chemSeed(r.seed)})
		})
		if err != nil {
			return nil, err
		}
		all = append(all, traces...)
	}
	r.set("chem.generate_ms", float64(gen)/float64(time.Millisecond), 1)
	return all, nil
}

// renderTraces generates the paper-scale traces and renders each in the
// v1 text format a client sends.
func renderTraces(r *run) ([]*trace.Trace, []string, error) {
	traces, err := generateTraces(r)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([]string, len(traces))
	for i, tr := range traces {
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			return nil, nil, err
		}
		bodies[i] = sb.String()
	}
	return traces, bodies, nil
}

// solved is one operation's outputs and the wall time of each solve.
type solved struct {
	tr                   *trace.Trace
	portfolio, batched   *transched.SolveResult
	portfolioD, batchedD time.Duration
}

// solve runs operation i: parse, portfolio solve, batched solve.
func (w *solveWorkload) solve(r *run, i int) (solved, time.Duration, error) {
	var out solved
	var err error
	ctx := context.Background()
	op := r.spans.start("solve-stream op", 0, -1)
	r.spans.timed("trace.Read", 0, op.id, func() { out.tr, err = trace.Read(strings.NewReader(w.bodies[i])) })
	if err != nil {
		return out, op.stop(), err
	}
	out.portfolioD = r.spans.timed("transched.Solve portfolio", 0, op.id, func() {
		out.portfolio, err = transched.Solve(ctx, out.tr, transched.SolveOptions{CapacityMultiplier: 1.5})
	})
	if err != nil {
		return out, op.stop(), err
	}
	out.batchedD = r.spans.timed("transched.Solve batched", 0, op.id, func() {
		out.batched, err = transched.Solve(ctx, out.tr, transched.SolveOptions{CapacityMultiplier: 1.5, BatchSize: 100})
	})
	return out, op.stop(), err
}

// check validates both schedules independently, holds the makespan each
// result claims to its schedule's, and holds the makespans to the
// operation's first run.
func (w *solveWorkload) check(i int, s solved) error {
	omim := flowshop.OMIM(s.tr.Tasks)
	for _, c := range []struct {
		what string
		res  *transched.SolveResult
	}{{"portfolio", s.portfolio}, {"batched", s.batched}} {
		if err := checkSchedule(c.what, c.res.Schedule, omim); err != nil {
			return err
		}
		if span := c.res.Schedule.Makespan(); span != c.res.Best.Makespan {
			return fmt.Errorf("%s: claims makespan %v, schedule ends at %v", c.what, c.res.Best.Makespan, span)
		}
	}
	got := [2]float64{s.portfolio.Best.Makespan, s.batched.Best.Makespan}
	if w.first[i] == nil {
		w.first[i] = &got
	} else if got != *w.first[i] {
		return fmt.Errorf("trace %d solved to %v, its first solve gave %v", i, got, *w.first[i])
	}
	return nil
}

// solveChecked runs and checks operation i, counting it in the run.
func (w *solveWorkload) solveChecked(r *run, i int) (solved, time.Duration, error) {
	s, d, err := w.solve(r, i)
	if err == nil {
		err = w.check(i, s)
	}
	r.op(err)
	return s, d, err
}

func (w *solveWorkload) measure(r *run) error {
	r.closedLoop(solveBlock, func(i int) time.Duration {
		_, d, _ := w.solveChecked(r, i)
		return d
	})
	return nil
}

// solveLayerOps is the fixed number of traces a traced run times.
const solveLayerOps = 24

func (w *solveWorkload) layers(r *run) error {
	var solveWall, layerSum, parWall, heurSum time.Duration
	var ins []*core.Instance
	trials := 0
	for i := 0; i < solveLayerOps; i++ {
		// On one core the portfolio solve is its layers called one after
		// another, so their spans must add up to its wall time.
		var s solved
		var err error
		onOneCore(func() {
			if s, _, err = w.solveChecked(r, i); err != nil {
				return
			}
			solveWall += s.portfolioD
			layers, heur := portfolioLayers(r, s)
			layerSum += layers
			heurSum += heur
		})
		if err != nil {
			continue
		}
		r.spans.timed("trace.Write", 0, -1, func() { err = trace.Write(io.Discard, s.tr) })
		r.op(err)

		// On every core: the portfolio's wall time, and the runtime's
		// batches one Submit at a time.
		if s, _, err = w.solveChecked(r, i); err != nil {
			continue
		}
		parWall += s.portfolioD
		in := s.tr.Instance(s.portfolio.Capacity)
		ins = append(ins, in)
		n, err := runtimeLayers(r, in)
		r.op(err)
		trials += n
	}
	r.reconcile("transched.Solve portfolio on one core", layerSum, solveWall)
	r.set("transched.portfolio_efficiency", heurSum.Seconds()/(parWall.Seconds()*float64(r.cores)), len(ins))
	r.set("rts.trials", float64(trials), len(ins))
	for _, m := range []struct{ span, metric string }{
		{"trace.Read", "trace.read_us_p50"},
		{"trace.Write", "trace.write_us_p50"},
		{"flowshop.OMIM", "flowshop.omim_us_p50"},
		{"heuristics.Advise", "heuristics.advise_us_p50"},
		{"core.Schedule.Validate", "core.validate_us_p50"},
		{"rts.Runtime.Submit", "rts.submit_us_p50"},
		{"rts.Runtime.Close", "rts.close_us_p50"},
	} {
		r.setQuantile(m.metric, r.spans.durations(m.span), 0.5, time.Microsecond)
	}
	setHeuristicLayers(r)
	kernel := r.spans.start("solve-stream kernel", 0, -1)
	onOneCore(func() { simulateLayers(r, kernel.id, ins[:min(4, len(ins))]) })
	kernel.stop()
	return nil
}

// portfolioLayers calls, one at a time, what transched.Solve does for a
// portfolio solve, each in its own span, and returns the spans' total
// and the heuristics' share of it.
func portfolioLayers(r *run, s solved) (total, heur time.Duration) {
	in := s.tr.Instance(s.portfolio.Capacity)
	sp := r.spans.start("portfolio layers", 0, -1)
	var omim float64
	var err error
	r.spans.timed("flowshop.OMIM", 0, sp.id, func() { omim = flowshop.OMIM(in.Tasks) })
	r.spans.timed("core.Instance.Validate", 0, sp.id, func() { err = in.Validate() })
	r.op(err)
	r.spans.timed("heuristics.Advise", 0, sp.id, func() { heuristics.Advise(in) })
	best, heur := heuristicLayers(r, sp.id, in, omim)
	if best != s.portfolio.Best.Makespan {
		r.op(fmt.Errorf("heuristics one by one give %v, the portfolio %v", best, s.portfolio.Best.Makespan))
	}
	r.spans.timed("core.Schedule.Validate", 0, sp.id, func() { err = s.portfolio.Schedule.Validate() })
	r.op(err)
	sp.stop()
	return r.spans.childSum(sp.id), heur
}

// runtimeLayers feeds the instance through rts.Auto the way the batched
// solve does, timing each 100-task Submit and the final Close, and
// returns the number of candidate trials the runtime ran.
func runtimeLayers(r *run, in *core.Instance) (int, error) {
	sp := r.spans.start("rts batched", 0, -1)
	defer sp.stop()
	rt, err := rts.New(rts.Config{Capacity: in.Capacity, BatchSize: 100, Selection: rts.Auto})
	if err != nil {
		return 0, err
	}
	for lo := 0; lo < len(in.Tasks); lo += 100 {
		batch := in.Tasks[lo:min(lo+100, len(in.Tasks))]
		r.spans.timed("rts.Runtime.Submit", 0, sp.id, func() { err = rt.Submit(batch...) })
		if err != nil {
			return 0, err
		}
	}
	var s *core.Schedule
	r.spans.timed("rts.Runtime.Close", 0, sp.id, func() { s, err = rt.Close() })
	if err != nil {
		return 0, err
	}
	if err := checkSchedule("rts", s, flowshop.OMIM(in.Tasks)); err != nil {
		return 0, err
	}
	trials := 0
	for _, b := range rt.Stats().Batches {
		trials += b.Trialed
	}
	return trials, nil
}
