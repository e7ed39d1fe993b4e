package main

import (
	"fmt"
	"math/rand"
	"time"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/experiments"
	"transched/internal/flowshop"
	"transched/internal/lpsched"
	"transched/internal/trace"
)

// The milp-window inputs: milpOps seeded HF traces of milpTasks tasks,
// each at one capacity of the paper's grid, so the operations are
// independent instances, sixteen at each capacity. About one in thirty
// takes two to four times the median, and how many a seed draws varies;
// with this many operations they stay above the 90th percentile. milpNodes
// caps branch and bound per window; with it nearly every window stops at
// the cap, so an operation's time measures the cost of a node, not how
// well the search closes the gap: that shows on the milp.gap_* layer
// metrics (README.md gives the trade-off against Fig 7's 1,500).
const (
	milpOps   = 144
	milpTasks = 12
	milpNodes = 40
)

// milpKs are the window sizes one operation solves.
var milpKs = []int{3, 4}

// milpWorkload is the Fig 7 exact path: one operation runs lpsched.Solve
// for lp.3 and then lp.4 on one trace at one capacity (one cell). The
// untraced run solves with one branch-and-bound worker on one core, as
// the Fig 7 driver does (it fans out over capacities instead); the
// round-parallel search on every core is timed in the traced run
// (milp.parallel_speedup), because its rounds wait for the slower core
// and on a shared host that scatters its time too widely between runs.
type milpWorkload struct {
	cells []*core.Instance
	// first[i] is cell i's first outcome; every later solve, at any
	// worker count, must reproduce it.
	first []*milpOutcome
}

// milpOutcome is what lp.3 and lp.4 returned on one cell.
type milpOutcome struct {
	makespan, gap                    [2]float64
	windows, nodes, iters, fallbacks [2]int
}

func (w *milpWorkload) close() {}

func (w *milpWorkload) setup(r *run) error {
	var traces []*trace.Trace
	var err error
	grid := experiments.DefaultMultipliers()
	gen := r.spans.timed("chem.Generate", 0, -1, func() {
		traces, err = chem.Generate("HF", cluster.Cascade(), chem.Config{
			Seed: chemSeed(r.seed), Processes: milpOps, MinTasks: milpTasks, MaxTasks: milpTasks,
		})
	})
	if err != nil {
		return err
	}
	r.set("chem.generate_ms", float64(gen)/float64(time.Millisecond), 1)
	// Cell k is at capacity k mod 9 of the grid, with the traces in a
	// seeded order, so the cells cover the capacities evenly and the
	// traced run's first few do too.
	rng := rand.New(rand.NewSource(r.seed))
	order := rng.Perm(len(traces))
	w.cells = make([]*core.Instance, len(traces))
	for k, t := range order {
		tr := traces[t]
		w.cells[k] = tr.Instance(tr.MinCapacity() * grid[k%len(grid)])
	}
	w.first = make([]*milpOutcome, len(w.cells))
	// Warm-up: a few cells, so that set-up time does not hang on how hard
	// the first instance happens to be.
	onOneCore(func() {
		for i := 0; i < 3; i++ {
			_, _, err := w.solve(r, i, 1, -1)
			r.op(err)
		}
	})
	return nil
}

// solve runs cell i with the given branch-and-bound workers, checks every
// schedule, and returns the cell's wall time and each lpsched.Solve
// call's.
func (w *milpWorkload) solve(r *run, i, workers, parent int) (time.Duration, []time.Duration, error) {
	in := w.cells[i]
	var out milpOutcome
	var calls []time.Duration
	op := r.spans.start("milp-window op", 0, parent)
	for j, k := range milpKs {
		var res *lpsched.Result
		var err error
		d := r.spans.timed("lpsched.Solve", 0, op.id, func() {
			res, err = lpsched.Solve(in, lpsched.Options{K: k, MaxNodesPerWindow: milpNodes, Workers: workers})
		})
		if err != nil {
			return op.stop(), calls, err
		}
		calls = append(calls, d)
		if err := checkSchedule(fmt.Sprintf("lp.%d", k), res.Schedule, flowshop.OMIM(in.Tasks)); err != nil {
			return op.stop(), calls, err
		}
		out.makespan[j], out.gap[j] = res.Schedule.Makespan(), res.Gap
		out.windows[j], out.nodes[j], out.iters[j], out.fallbacks[j] = res.Windows, res.Nodes, res.SimplexIters, res.Fallbacks
	}
	d := op.stop()
	if w.first[i] == nil {
		w.first[i] = &out
	} else if out != *w.first[i] {
		return d, calls, fmt.Errorf("cell %d gave %+v at %d workers, first run %+v", i, out, workers, *w.first[i])
	}
	return d, calls, nil
}

func (w *milpWorkload) measure(r *run) error {
	onOneCore(func() {
		r.closedLoop(len(w.cells), func(i int) time.Duration {
			d, _, err := w.solve(r, i, 1, -1)
			r.op(err)
			return d
		})
	})
	return nil
}

// milpLayerOps is the fixed number of cells a traced run times, two at
// each capacity.
const milpLayerOps = 18

func (w *milpWorkload) layers(r *run) error {
	var parOps, serialOps, parCalls, serialCalls []time.Duration
	for i := 0; i < milpLayerOps; i++ {
		d, calls, err := w.solve(r, i, 0, -1)
		r.op(err)
		parOps = append(parOps, d)
		parCalls = append(parCalls, calls...)
	}
	onOneCore(func() {
		for i := 0; i < milpLayerOps; i++ {
			d, calls, err := w.solve(r, i, 1, -1)
			r.op(err)
			serialOps = append(serialOps, d)
			serialCalls = append(serialCalls, calls...)
		}
	})
	r.reconcile("lpsched.Solve on one core", sum(serialCalls), sum(serialOps))
	var windows, nodes, iters, fallbacks, solves int
	var gapMax, gapSum float64
	for _, o := range w.first[:milpLayerOps] {
		if o == nil {
			continue
		}
		for j := range milpKs {
			windows += o.windows[j]
			nodes += o.nodes[j]
			iters += o.iters[j]
			fallbacks += o.fallbacks[j]
			gapMax = max(gapMax, o.gap[j])
			gapSum += o.gap[j]
			solves++
		}
	}
	r.setQuantile("lpsched.solve_ms_p50", parCalls, 0.5, time.Millisecond)
	r.set("lpsched.windows", float64(windows), milpLayerOps)
	r.set("lpsched.fallbacks", float64(fallbacks), milpLayerOps)
	r.set("milp.gap_max", gapMax, solves)
	if solves > 0 {
		r.set("milp.gap_mean", gapSum/float64(solves), solves)
	}
	r.set("milp.nodes", float64(nodes), milpLayerOps)
	if nodes > 0 {
		r.set("lp.iters_per_node", float64(iters)/float64(nodes), milpLayerOps)
	}
	r.set("milp.nodes_per_s", float64(nodes)/sum(parCalls).Seconds(), len(parCalls))
	r.set("milp.parallel_speedup", sum(serialOps).Seconds()/sum(parOps).Seconds(), milpLayerOps)
	return nil
}
