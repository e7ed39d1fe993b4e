package lpsched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/lp"
	"transched/internal/milp"
)

// Options tunes the windowed MILP heuristic.
type Options struct {
	// K is the window size (the paper evaluates k = 3, 4, 5, 6).
	K int
	// MaxNodesPerWindow caps branch and bound per window (0 = 20000).
	MaxNodesPerWindow int
	// NoIncumbentSeed disables seeding each window's branch and bound with
	// the greedy completion's objective (ablation knob; seeding on is the
	// production configuration).
	NoIncumbentSeed bool
	// Workers bounds the goroutines each window's branch and bound uses
	// for node expansion (0 means GOMAXPROCS, 1 is the serial path). The
	// schedule is bit-identical at every setting.
	Workers int
	// Deadline, with Clock, stops branch and bound once Clock reports a
	// later time; expired windows fall back to the greedy completion.
	// Clock must come from the caller (detclock: this package never reads
	// the wall clock itself).
	Deadline time.Time
	Clock    func() time.Time
}

// Result carries the schedule plus solver statistics.
type Result struct {
	Schedule *core.Schedule
	// Windows is the number of MILP windows solved.
	Windows int
	// Nodes is the total number of branch-and-bound nodes.
	Nodes int
	// Fallbacks counts windows where the node budget expired before any
	// integer solution was found and the greedy completion was used.
	Fallbacks int
	// SimplexIters is the total number of simplex pivots across windows.
	SimplexIters int
	// Gap is the worst relative optimality gap over the windows: 0 when
	// every window was solved to proven optimality, otherwise the largest
	// (objective − bound) / max(1, |objective|) among windows that hit a
	// node, deadline, or context budget first.
	Gap float64
}

// Solve runs the iterative windowed MILP heuristic lp.k (paper §4.5):
// tasks are taken in submission order in windows of k; each window is
// scheduled by the MILP together with the still-resident and
// still-flexible tasks of earlier windows; at the window boundary, events
// that started before the boundary are fixed and later events remain
// flexible.
func Solve(in *core.Instance, opts Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	k := opts.K
	if k <= 0 {
		k = 3
	}
	maxNodes := opts.MaxNodesPerWindow
	if maxNodes <= 0 {
		maxNodes = 20000
	}

	type slot struct {
		task      core.Task
		commStart float64
		compStart float64
		compFixed bool
	}
	var committed []slot // tasks with committed transfers (comm fixed)
	boundary := 0.0      // all committed transfers end at or before this
	res := &Result{}
	var prevBasis *lp.Basis // previous window's root basis (warm start)

	for lo := 0; lo < in.N(); lo += k {
		hi := lo + k
		if hi > in.N() {
			hi = in.N()
		}

		// Assemble the window: carryovers still visible to the MILP are
		// those whose computation is flexible or still occupying memory or
		// the processing unit at/after the boundary.
		var wts []winTask
		carryIdx := make([]int, 0, len(committed))
		for ci := range committed {
			c := &committed[ci]
			active := !c.compFixed || c.compStart+c.task.Comp > boundary-tol
			if !active {
				continue
			}
			wts = append(wts, winTask{
				task:      c.task,
				commFixed: true,
				commStart: c.commStart,
				compFixed: c.compFixed,
				compStart: c.compStart,
			})
			carryIdx = append(carryIdx, ci)
		}
		nCarry := len(wts)
		for i := lo; i < hi; i++ {
			wts = append(wts, winTask{task: in.Tasks[i], boundary: boundary})
		}

		f := buildFormulation(wts, in.Capacity)

		// Greedy fallback completion doubles as the incumbent seed.
		fbS, fbSp, fbObj := greedyCompletion(wts, in.Capacity)

		sol, err := milp.Solve(&f.prob, milp.Options{
			MaxNodes:           maxNodes,
			IncumbentObjective: fbObj + 1e-7,
			IncumbentSet:       !opts.NoIncumbentSeed,
			Workers:            opts.Workers,
			Deadline:           opts.Deadline,
			Clock:              opts.Clock,
			KnownLowerBound:    windowLowerBound(wts),
			KnownLowerBoundSet: true,
			RootBasis:          prevBasis,
		})
		if err != nil {
			return nil, fmt.Errorf("lpsched: window [%d,%d): %w", lo, hi, err)
		}
		res.Windows++
		res.Nodes += sol.Nodes
		res.SimplexIters += sol.SimplexIters
		if sol.RootBasis != nil {
			prevBasis = sol.RootBasis
		}

		sVals, spVals := fbS, fbSp
		usedObj := fbObj
		switch sol.Status {
		case milp.Optimal, milp.Feasible:
			sVals, spVals = f.startTimes(sol.X)
			usedObj = sol.Objective
		case milp.Infeasible:
			// Nothing beat the greedy incumbent; keep the fallback values.
			res.Fallbacks++
		case milp.Expired:
			// A budget ran out before any incumbent; the greedy
			// completion stands in and the window's bound dates the gap.
			res.Fallbacks++
		default:
			return nil, fmt.Errorf("lpsched: window [%d,%d): unexpected status %v", lo, hi, sol.Status)
		}
		if sol.Status != milp.Optimal {
			// Optimal proves gap 0; everything else is measured against the
			// proven bound. The intEps slack absorbs the incumbent-cutoff
			// epsilon so a fully drained tree (Infeasible: nothing beat the
			// seed) also reports 0 rather than solver noise.
			if g := (usedObj - 1e-6 - sol.Bound) / math.Max(1, math.Abs(usedObj)); g > res.Gap {
				res.Gap = g
			}
		}

		// Commit the new tasks' transfers and update flexible carryovers.
		for w, ci := range carryIdx {
			if !committed[ci].compFixed {
				committed[ci].compStart = spVals[w]
			}
		}
		for i := lo; i < hi; i++ {
			w := nCarry + i - lo
			committed = append(committed, slot{
				task:      in.Tasks[i],
				commStart: sVals[w],
				compStart: spVals[w],
			})
		}

		// New boundary: the end of the last committed transfer. Fix every
		// computation that starts before it.
		for _, c := range committed {
			if e := c.commStart + c.task.Comm; e > boundary {
				boundary = e
			}
		}
		for ci := range committed {
			if !committed[ci].compFixed && committed[ci].compStart < boundary-tol {
				committed[ci].compFixed = true
			}
		}
	}

	s := core.NewSchedule(in.Capacity)
	for _, c := range committed {
		s.Append(core.Assignment{Task: c.task, CommStart: c.commStart, CompStart: c.compStart})
	}
	res.Schedule = repair(s)
	return res, nil
}

// windowLowerBound is the externally proven lower bound handed to branch
// and bound as milp.Options.KnownLowerBound: the window makespan can never
// beat Johnson's memory-unlimited optimum over the window's tasks (OMIM is
// a valid bound even though the MILP may order the two resources
// differently — in a two-machine flowshop a common-order schedule is
// always among the optima), nor end before any already committed
// computation.
func windowLowerBound(wts []winTask) float64 {
	tasks := make([]core.Task, len(wts))
	for i, w := range wts {
		tasks[i] = w.task
	}
	lb := flowshop.OMIM(tasks)
	for _, w := range wts {
		if w.compFixed {
			if e := w.compStart + w.task.Comp; e > lb {
				lb = e
			}
		}
	}
	return lb
}

// SolveExact runs the MILP over the entire instance in one window with no
// carryovers — the paper's full formulation. Only practical for small
// instances; it is the ground truth the unit tests compare against.
func SolveExact(in *core.Instance, maxNodes int) (*core.Schedule, *milp.Solution, error) {
	return SolveExactWith(in, Options{MaxNodesPerWindow: maxNodes})
}

// SolveExactWith is SolveExact with the full option set: Workers fans the
// branch and bound out (bit-identical result at every setting), and
// Deadline/Clock bound the solve the same way they bound a window.
//
// The search is always seeded with the greedy completion (K and
// NoIncumbentSeed are per-window settings and do not apply), so every
// valid instance gets a schedule: when no MILP solution beats the seed,
// the greedy schedule is returned and the Solution describes it —
// Optimal when the search drained (the seed is proven optimal),
// Feasible when a budget stopped it, with Bound the proven lower bound
// either way.
func SolveExactWith(in *core.Instance, opts Options) (*core.Schedule, *milp.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	wts := make([]winTask, in.N())
	for i, t := range in.Tasks {
		wts[i] = winTask{task: t}
	}
	f := buildFormulation(wts, in.Capacity)
	maxNodes := opts.MaxNodesPerWindow
	if maxNodes <= 0 {
		maxNodes = 500000
	}
	fbS, fbSp, fbObj := greedyCompletion(wts, in.Capacity)
	sol, err := milp.Solve(&f.prob, milp.Options{
		MaxNodes:           maxNodes,
		IncumbentObjective: fbObj + 1e-7,
		IncumbentSet:       true,
		Workers:            opts.Workers,
		Deadline:           opts.Deadline,
		Clock:              opts.Clock,
		KnownLowerBound:    windowLowerBound(wts),
		KnownLowerBoundSet: true,
	})
	if err != nil {
		return nil, nil, err
	}
	sVals, spVals := fbS, fbSp
	switch sol.Status {
	case milp.Optimal, milp.Feasible:
		sVals, spVals = f.startTimes(sol.X)
	case milp.Infeasible, milp.Expired:
		// Nothing beat the seed. The same intEps-sized slack as a
		// window's gap tells a drained tree (bound closed on the seed)
		// from a budget stop.
		sol.Objective = fbObj
		sol.Status = milp.Feasible
		if sol.Bound >= fbObj-1e-6 {
			sol.Status, sol.Bound = milp.Optimal, fbObj
		}
	default:
		return nil, sol, fmt.Errorf("lpsched: exact solve ended with status %v", sol.Status)
	}
	s := core.NewSchedule(in.Capacity)
	for i := range wts {
		s.Append(core.Assignment{Task: wts[i].task, CommStart: sVals[i], CompStart: spVals[i]})
	}
	return repair(s), sol, nil
}

// greedyCompletion schedules the window's flexible events greedily —
// committed transfers in place, flexible computations and new tasks in
// submission order, each at the earliest feasible time — and returns the
// start times plus the resulting window makespan. It both seeds the
// branch-and-bound incumbent and serves as the fallback when the node
// budget expires.
func greedyCompletion(wts []winTask, capacity float64) (sVals, spVals []float64, obj float64) {
	n := len(wts)
	sVals = make([]float64, n)
	spVals = make([]float64, n)

	// Committed events first.
	type rel struct{ at, mem float64 }
	var releases []rel
	tauComm, tauComp := 0.0, 0.0
	for i, w := range wts {
		if w.commFixed {
			sVals[i] = w.commStart
			if e := w.commStart + w.task.Comm; e > tauComm {
				tauComm = e
			}
		}
		if w.compFixed {
			spVals[i] = w.compStart
			if e := w.compStart + w.task.Comp; e > tauComp {
				tauComp = e
			}
		}
	}

	memAt := func(t float64) float64 {
		use := 0.0
		for _, r := range releases {
			if r.at > t+tol {
				use += r.mem
			}
		}
		return use
	}
	// Pre-register fully committed tasks as releases.
	for _, w := range wts {
		if w.commFixed && w.compFixed {
			releases = append(releases, rel{at: w.compStart + w.task.Comp, mem: w.task.Mem})
		}
	}

	// Flexible computations of committed transfers, in transfer order.
	type flexComp struct {
		idx   int
		start float64
	}
	var flex []flexComp
	for i, w := range wts {
		if w.commFixed && !w.compFixed {
			flex = append(flex, flexComp{idx: i, start: w.commStart})
		}
	}
	sort.SliceStable(flex, func(a, b int) bool { return flex[a].start < flex[b].start })
	for _, fc := range flex {
		w := wts[fc.idx]
		start := math.Max(w.commStart+w.task.Comm, tauComp)
		spVals[fc.idx] = start
		tauComp = start + w.task.Comp
		releases = append(releases, rel{at: tauComp, mem: w.task.Mem})
	}

	// New tasks in submission order, waiting for memory releases.
	for i, w := range wts {
		if w.commFixed {
			continue
		}
		start := math.Max(tauComm, w.boundary)
		for memAt(start)+w.task.Mem > capacity+tol {
			// Advance to the next release strictly after start.
			next := math.Inf(1)
			for _, r := range releases {
				if r.at > start+tol && r.at < next {
					next = r.at
				}
			}
			if math.IsInf(next, 1) {
				break // cannot happen when Mem <= capacity
			}
			start = next
		}
		sVals[i] = start
		tauComm = start + w.task.Comm
		comp := math.Max(tauComm, tauComp)
		spVals[i] = comp
		tauComp = comp + w.task.Comp
		releases = append(releases, rel{at: tauComp, mem: w.task.Mem})
	}

	for i, w := range wts {
		if e := spVals[i] + w.task.Comp; e > obj {
			obj = e
		}
	}
	return sVals, spVals, obj
}
