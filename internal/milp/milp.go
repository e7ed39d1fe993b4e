// Package milp solves mixed-integer linear programs by LP-relaxation
// branch and bound over the package lp simplex solver. Together they stand
// in for the GLPK v4.65 solver the paper drives its §4.5 formulation with.
//
// The search is best-first on the relaxation bound, branches on the most
// fractional integer variable, and supports an incumbent cutoff seeded
// from a known feasible solution (the windowed solver in lpsched seeds
// it with a greedy completion of each window) plus node, gap,
// wall-clock and improvement budgets — mirroring how the paper had to
// cap GLPK ("the solver was unable to solve this MILP at the scale of
// our interest in limited time").
//
// Since the warm-start rewrite the search no longer solves any LP from
// scratch past the root: every node carries its parent's optimal basis
// (lp.Basis), expansion refactorises that basis in a per-worker
// lp.Scratch and evaluates both children with a one-bound dual-simplex
// repair (lp.Workspace.Resolve) around a Snapshot/Restore pair. Nodes
// store only the bounds of the integer variables plus the basis, and the
// historical double solve per node — once at creation, again at pop — is
// gone. The incumbent also tightens integer bounds by reduced-cost
// fixing before a child is queued.
//
// Node expansion fans out over internal/par with the house
// index-addressed-slot discipline, in synchronous rounds of a fixed
// width that does not depend on the worker count: the set of nodes
// expanded each round is chosen serially in best-bound order with a
// deterministic (bound, creation sequence) tie-break, workers write
// results only to their own slot, and the reduce runs serially in slot
// order. The explored tree, node counts, and returned solution are
// therefore bit-identical at every Options.Workers setting — the same
// contract the solver portfolio and sweep engine obey. The pre-rewrite
// solver is preserved in reference_test.go and the differential suite
// pins the two to identical answers.
package milp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"time"

	"transched/internal/lp"
	"transched/internal/par"
)

// Problem is an LP plus integrality requirements.
type Problem struct {
	LP lp.Problem
	// Integer lists the variables required to take integer values.
	Integer []int
}

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of explored nodes (0 means 200000).
	MaxNodes int
	// IncumbentObjective, when IncumbentSet, prunes nodes whose relaxation
	// bound is not below it (a feasible objective known from outside, e.g.
	// a heuristic schedule).
	IncumbentObjective float64
	IncumbentSet       bool
	// Gap is the relative optimality gap at which search stops (0 = exact).
	Gap float64
	// Workers bounds the goroutines used for node expansion (0 means
	// GOMAXPROCS, 1 is the inline serial path). The result is
	// bit-identical at every setting.
	Workers int
	// Deadline, when nonzero, stops the search once Clock reports a later
	// time; the best incumbent is returned as Feasible (Expired when none
	// exists). Clock must be supplied by the caller — this package never
	// reads the wall clock itself (detclock), so deadline behaviour stays
	// replayable under a synthetic clock.
	Deadline time.Time
	Clock    func() time.Time
	// Context, when non-nil, cancels the search the same way the deadline
	// does (checked between rounds).
	Context context.Context
	// KnownLowerBound, when KnownLowerBoundSet, is an externally proven
	// lower bound on the optimum (the windowed driver passes the OMIM
	// bound). Search stops with Optimal as soon as the incumbent reaches
	// it, and reduced-cost fixing uses it indirectly via earlier pruning.
	KnownLowerBound    float64
	KnownLowerBoundSet bool
	// RootBasis warm-starts the root relaxation (the windowed driver
	// carries the previous window's root basis). A mismatched or
	// numerically singular basis silently falls back to a cold solve.
	RootBasis *lp.Basis
}

// Status reports the outcome of a MILP solve.
type Status int

const (
	// Optimal: proven optimal within the gap.
	Optimal Status = iota
	// Feasible: a feasible solution was found but the node budget (or
	// deadline/context) ran out before proving optimality.
	Feasible
	// Infeasible: no integer-feasible solution exists (or none better than
	// the incumbent cutoff).
	Infeasible
	// Unbounded: the relaxation is unbounded.
	Unbounded
	// Expired: a budget (the deadline, the context or the node cap) ran
	// out before any incumbent; only Bound (and Objective, when an
	// incumbent was seeded) is meaningful. Nothing is proven infeasible.
	Expired
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Expired:
		return "expired"
	}
	return "unknown"
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Bound is the best lower bound proven (useful when Status==Feasible).
	Bound float64
	// SimplexIters is the total number of simplex pivots spent across the
	// search (root + every child repair).
	SimplexIters int
	// RootBasis is the optimal basis of the root relaxation, reusable as
	// Options.RootBasis of a structurally identical solve (the windowed
	// driver hands it from one window to the next).
	RootBasis *lp.Basis
}

const intEps = 1e-6

// roundWidth is the number of nodes expanded per synchronous round. It
// is a fixed constant — independent of Options.Workers — because the
// round composition is what the deterministic-parallelism contract
// hangs off: every worker count expands exactly the same node sets in
// the same order.
const roundWidth = 8

type bbNode struct {
	bound float64
	seq   int // creation sequence; tie-break after bound
	// branchIdx indexes Integer; the node's relaxation was fractional on
	// that variable at branchVal.
	branchIdx int
	branchVal float64
	basis     *lp.Basis
	// intLo/intHi are the node's bounds for the integer variables only
	// (in Integer order); continuous bounds never change during search.
	intLo, intHi []float64
	index        int // heap bookkeeping
}

type nodeQueue []*bbNode

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *nodeQueue) Push(x interface{}) { n := x.(*bbNode); n.index = len(*q); *q = append(*q, n) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := old[len(old)-1]
	*q = old[:len(old)-1]
	return n
}

// childResult is one evaluated child of an expanded node.
type childResult struct {
	status lp.Status
	obj    float64
	iters  int
	// x is non-nil when the child relaxation is integral (a new
	// candidate incumbent).
	x []float64
	// rx/rObj is a rounded integer-feasible candidate incumbent derived
	// from a fractional relaxation point (no extra LP solve).
	rx   []float64
	rObj float64
	// Fractional children that survive the round-start cutoff carry
	// everything needed to queue them.
	fracIdx      int
	fracVal      float64
	basis        *lp.Basis
	intLo, intHi []float64
	// pruned: optimal but not below the round-start cutoff. dropped:
	// reduced-cost fixing emptied the subtree's integer box.
	pruned, dropped bool
}

// expansion is one slot of a parallel round: both children of one node.
type expansion struct {
	children [2]childResult
	has      [2]bool
	skipped  bool // parent re-solve not optimal (numerical); node skipped
}

// slot bundles the per-worker reusable state; workers address it only
// through their own round index.
type slot struct {
	sc     *lp.Scratch
	lo, hi []float64
}

// Solve runs branch and bound. The problem's own Lower/Upper bounds are
// respected; branching tightens per-node copies of the integer ones.
func Solve(p *Problem, opts Options) (*Solution, error) {
	n := p.LP.NumVars
	for _, j := range p.Integer {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("milp: integer variable %d out of range", j)
		}
	}
	if !opts.Deadline.IsZero() && opts.Clock == nil {
		return nil, fmt.Errorf("milp: Options.Deadline requires Options.Clock (no wall-clock reads in this package)")
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	baseLo := make([]float64, n)
	baseHi := make([]float64, n)
	for j := 0; j < n; j++ {
		if p.LP.Lower != nil {
			baseLo[j] = p.LP.Lower[j]
		}
		if p.LP.Upper != nil {
			baseHi[j] = p.LP.Upper[j]
		} else {
			baseHi[j] = math.Inf(1)
		}
	}

	best := math.Inf(1)
	if opts.IncumbentSet {
		best = opts.IncumbentObjective
	}
	var bestX []float64

	ws, err := lp.NewWorkspace(&p.LP)
	if err != nil {
		return nil, err
	}
	rootSlot := &slot{sc: ws.NewScratch(), lo: make([]float64, n), hi: make([]float64, n)}
	sol, rootBasis, err := ws.SolveFrom(rootSlot.sc, baseLo, baseHi, opts.RootBasis)
	if err != nil {
		return nil, err
	}
	iters := sol.Iters
	switch sol.Status {
	case lp.Unbounded:
		return &Solution{Status: Unbounded, SimplexIters: iters}, nil
	case lp.Infeasible:
		return &Solution{Status: Infeasible, SimplexIters: iters}, nil
	case lp.IterLimit:
		return nil, fmt.Errorf("milp: simplex iteration limit at root")
	}

	// Check the root before branching.
	if j := mostFractional(sol.X, p.Integer); j < 0 {
		if sol.Objective < best-intEps {
			return &Solution{Status: Optimal, Objective: sol.Objective, X: sol.X, Nodes: 1,
				Bound: sol.Objective, SimplexIters: iters, RootBasis: rootBasis}, nil
		}
		// The root is integral but no better than the seeded incumbent.
		return &Solution{Status: Infeasible, Objective: best, Nodes: 1,
			Bound: sol.Objective, SimplexIters: iters, RootBasis: rootBasis}, nil
	}

	// A rounded incumbent from the fractional root point (no LP solve)
	// lets reduced-cost fixing and bound pruning engage from the first
	// round instead of waiting for the search to stumble on one.
	if rx, rObj, ok := roundHeuristic(p, sol.X, baseLo, baseHi); ok && rObj < best-intEps {
		best, bestX = rObj, rx
	}

	nInt := len(p.Integer)
	rootLo := make([]float64, nInt)
	rootHi := make([]float64, nInt)
	for t, j := range p.Integer {
		rootLo[t] = baseLo[j]
		rootHi[t] = baseHi[j]
	}
	if rcTighten(rootSlot.sc, p.Integer, sol.Objective, best, rootLo, rootHi) {
		// The incumbent already excludes every integer point below it.
		if bestX != nil {
			return &Solution{Status: Optimal, Objective: best, X: bestX, Nodes: 1,
				Bound: best, SimplexIters: iters, RootBasis: rootBasis}, nil
		}
		return &Solution{Status: Infeasible, Objective: best, Nodes: 1,
			Bound: sol.Objective, SimplexIters: iters, RootBasis: rootBasis}, nil
	}

	queue := &nodeQueue{}
	heap.Init(queue)
	rootJ := mostFractional(sol.X, p.Integer)
	heap.Push(queue, &bbNode{
		bound:     sol.Objective,
		branchIdx: intIndexOf(p.Integer, rootJ),
		branchVal: sol.X[rootJ],
		basis:     rootBasis,
		intLo:     rootLo,
		intHi:     rootHi,
	})

	expired := func() bool {
		if opts.Context != nil {
			select {
			case <-opts.Context.Done():
				return true
			default:
			}
		}
		return !opts.Deadline.IsZero() && opts.Clock().After(opts.Deadline)
	}

	slots := make([]*slot, roundWidth)
	results := make([]expansion, roundWidth)
	selected := make([]*bbNode, 0, roundWidth)

	nodes := 1
	seq := 0
	provenBound := sol.Objective
	expiredOut := false
	for queue.Len() > 0 && nodes < maxNodes {
		top := (*queue)[0]
		provenBound = top.bound
		if !(top.bound < best-intEps) {
			// Best-first: every remaining node is at least as bad.
			*queue = (*queue)[:0]
			break
		}
		if opts.Gap > 0 && best < math.Inf(1) && (best-top.bound) <= opts.Gap*math.Abs(best) {
			break
		}
		if opts.KnownLowerBoundSet && bestX != nil && best <= opts.KnownLowerBound+intEps {
			// The incumbent meets an externally proven lower bound:
			// optimal without draining the tree.
			return &Solution{Status: Optimal, Objective: best, X: bestX, Nodes: nodes,
				Bound: best, SimplexIters: iters, RootBasis: rootBasis}, nil
		}
		if expired() {
			expiredOut = true
			break
		}

		// Select this round's nodes serially, in (bound, seq) order. The
		// round width is capped by the node budget: each expansion adds
		// at most two nodes.
		k := roundWidth
		if rem := (maxNodes - nodes + 1) / 2; rem < k {
			k = rem
		}
		if k < 1 {
			k = 1
		}
		selected = selected[:0]
		for len(selected) < k && queue.Len() > 0 {
			if !((*queue)[0].bound < best-intEps) {
				break
			}
			selected = append(selected, heap.Pop(queue).(*bbNode))
		}
		if len(selected) == 0 {
			break
		}

		// Expand in parallel: slot i writes only results[i]/slots[i].
		// roundBest is frozen for the round so the arithmetic inside an
		// expansion does not depend on sibling slots (or worker count).
		roundBest := best
		par.ForEachIndex(opts.Workers, len(selected), func(i int) {
			if slots[i] == nil {
				slots[i] = &slot{sc: ws.NewScratch(), lo: make([]float64, n), hi: make([]float64, n)}
			}
			results[i] = expandNode(ws, slots[i], p, baseLo, baseHi, selected[i], roundBest)
		})

		// Serial reduce in slot order, children in side order: incumbent
		// updates and pushes happen in a deterministic sequence. A node
		// whose bound no longer beats the live incumbent (improved by an
		// earlier slot this round) is discarded, expansion and all —
		// exactly the serial prune-at-pop rule, so the accounted tree is
		// the one a one-node-per-round search would explore and the
		// speculative work shows up only in wall time.
		for i := range selected {
			if !(selected[i].bound < best-intEps) {
				continue
			}
			res := &results[i]
			for side := 0; side < 2; side++ {
				if !res.has[side] {
					continue
				}
				cr := &res.children[side]
				nodes++
				iters += cr.iters
				if cr.status != lp.Optimal {
					continue
				}
				if cr.x != nil { // integer feasible
					if cr.obj < best-intEps {
						best = cr.obj
						bestX = cr.x
					}
					continue
				}
				if cr.rx != nil && cr.rObj < best-intEps {
					best = cr.rObj
					bestX = cr.rx
				}
				if cr.pruned || cr.dropped {
					continue
				}
				if !(cr.obj < best-intEps) {
					continue
				}
				seq++
				heap.Push(queue, &bbNode{
					bound:     cr.obj,
					seq:       seq,
					branchIdx: cr.fracIdx,
					branchVal: cr.fracVal,
					basis:     cr.basis,
					intLo:     cr.intLo,
					intHi:     cr.intHi,
				})
			}
		}
	}

	switch {
	case bestX == nil && (expiredOut || (!opts.IncumbentSet && queue.Len() > 0)):
		// A budget ran out before any incumbent. A node-cap stop with
		// frontier nodes left proves nothing, so it is Expired too,
		// never Infeasible.
		out := &Solution{Status: Expired, Nodes: nodes, Bound: provenBound, SimplexIters: iters, RootBasis: rootBasis}
		if opts.IncumbentSet {
			out.Objective = best
		}
		return out, nil
	case bestX == nil && !opts.IncumbentSet:
		return &Solution{Status: Infeasible, Nodes: nodes, Bound: provenBound, SimplexIters: iters, RootBasis: rootBasis}, nil
	case bestX == nil:
		// Nothing better than the seeded incumbent was found. A drained
		// queue is an exhaustive proof, so the bound closes on the
		// incumbent; only a budget stop leaves it at the frontier.
		if queue.Len() == 0 {
			provenBound = best
		}
		return &Solution{Status: Infeasible, Objective: best, Nodes: nodes, Bound: provenBound, SimplexIters: iters, RootBasis: rootBasis}, nil
	case queue.Len() == 0:
		return &Solution{Status: Optimal, Objective: best, X: bestX, Nodes: nodes, Bound: best, SimplexIters: iters, RootBasis: rootBasis}, nil
	default:
		return &Solution{Status: Feasible, Objective: best, X: bestX, Nodes: nodes, Bound: provenBound, SimplexIters: iters, RootBasis: rootBasis}, nil
	}
}

// expandNode re-creates the parent relaxation from its stored basis
// (zero pivots — the basis is optimal for those bounds) and evaluates
// both branching children with in-place one-bound resolves around a
// Snapshot/Restore pair. It is a pure function of (node, cutoff) plus
// its own slot, which is what makes the parallel rounds deterministic.
func expandNode(ws *lp.Workspace, sl *slot, p *Problem, baseLo, baseHi []float64, nd *bbNode, cutoff float64) expansion {
	copy(sl.lo, baseLo)
	copy(sl.hi, baseHi)
	for t, j := range p.Integer {
		sl.lo[j] = nd.intLo[t]
		sl.hi[j] = nd.intHi[t]
	}
	parent, _, err := ws.SolveFrom(sl.sc, sl.lo, sl.hi, nd.basis)
	if err != nil || parent.Status != lp.Optimal {
		// The node was optimal when queued; failing to reproduce that is
		// numerical. Skip the node (deterministically: the arithmetic
		// does not depend on the worker count).
		return expansion{skipped: true}
	}
	var res expansion
	res.children[0].iters = parent.Iters // attribute refactor work to the first child
	branchVar := p.Integer[nd.branchIdx]
	floor := math.Floor(nd.branchVal)
	sl.sc.Snapshot()
	for side := 0; side < 2; side++ {
		if side == 1 {
			sl.sc.Restore()
		}
		var nLo, nHi float64
		if side == 0 {
			nLo, nHi = nd.intLo[nd.branchIdx], floor
		} else {
			nLo, nHi = floor+1, nd.intHi[nd.branchIdx]
		}
		if nLo > nHi+intEps {
			continue
		}
		child, cBasis, err := ws.Resolve(sl.sc, branchVar, nLo, nHi)
		if err != nil {
			continue
		}
		res.has[side] = true
		cr := &res.children[side]
		cr.status = child.Status
		cr.obj = child.Objective
		cr.iters += child.Iters
		if child.Status != lp.Optimal {
			continue
		}
		if jj := mostFractional(child.X, p.Integer); jj < 0 {
			cr.x = child.X
			continue
		} else if child.Objective < cutoff-intEps {
			cr.fracIdx = intIndexOf(p.Integer, jj)
			cr.fracVal = child.X[jj]
			cr.basis = cBasis
			cr.intLo = append([]float64(nil), nd.intLo...)
			cr.intHi = append([]float64(nil), nd.intHi...)
			if side == 0 {
				cr.intHi[nd.branchIdx] = nHi
			} else {
				cr.intLo[nd.branchIdx] = nLo
			}
			cr.dropped = rcTighten(sl.sc, p.Integer, child.Objective, cutoff, cr.intLo, cr.intHi)
			if !cr.dropped {
				sl.lo[branchVar], sl.hi[branchVar] = nLo, nHi
				if rx, rObj, ok := roundHeuristic(p, child.X, sl.lo, sl.hi); ok {
					cr.rx, cr.rObj = rx, rObj
				}
			}
		} else {
			cr.pruned = true
		}
	}
	return res
}

// rcTighten applies reduced-cost fixing: with the relaxation optimal at
// obj and any improving integer point required to be below cutoff -
// intEps, a nonbasic integer variable with reduced cost d can move at
// most (cutoff - intEps - obj)/|d| from its bound. Bounds in intLo/intHi
// (Integer order) are tightened in place, rounded outward so no integer
// point below the cutoff is ever cut. Reports whether some variable's
// box became empty — the subtree then contains no improving integer
// point.
func rcTighten(sc *lp.Scratch, integers []int, obj, cutoff float64, intLo, intHi []float64) bool {
	if math.IsInf(cutoff, 1) {
		return false
	}
	slack := cutoff - intEps - obj
	if slack < 0 {
		return false
	}
	empty := false
	for t, j := range integers {
		d, atUpper, basic := sc.ReducedCost(j)
		if basic {
			continue
		}
		ad := math.Abs(d)
		if ad <= 1e-9 {
			continue
		}
		width := slack / ad
		if atUpper {
			if nLo := math.Ceil(intHi[t] - width - intEps); nLo > intLo[t] {
				intLo[t] = nLo
			}
		} else {
			if nHi := math.Floor(intLo[t] + width + intEps); nHi < intHi[t] {
				intHi[t] = nHi
			}
		}
		if intLo[t] > intHi[t]+intEps {
			empty = true
		}
	}
	return empty
}

// roundHeuristic tries to turn a fractional relaxation point into an
// integer-feasible incumbent without any LP solve: integer variables
// are rounded (nearest, then floor as a fallback — floor is always
// feasible for knapsack-shaped rows) and clamped to the node's bounds,
// continuous variables keep their relaxation values, and the candidate
// is accepted only if it satisfies every row. Both candidates are
// evaluated deterministically; the better feasible one is returned.
func roundHeuristic(p *Problem, x, lo, hi []float64) ([]float64, float64, bool) {
	var bestX []float64
	bestObj := math.Inf(1)
	cand := make([]float64, len(x))
	for mode := 0; mode < 2; mode++ {
		copy(cand, x)
		ok := true
		for _, j := range p.Integer {
			var v float64
			if mode == 0 {
				v = math.Round(x[j])
			} else {
				v = math.Floor(x[j] + intEps)
			}
			minV, maxV := math.Ceil(lo[j]-intEps), math.Floor(hi[j]+intEps)
			if minV > maxV { // no integer in this variable's box
				ok = false
				break
			}
			if v < minV {
				v = minV
			}
			if v > maxV {
				v = maxV
			}
			cand[j] = v
		}
		if !ok || !rowsFeasible(p, cand) {
			continue
		}
		obj := 0.0
		for j, c := range p.LP.Objective {
			obj += c * cand[j]
		}
		if obj < bestObj {
			bestObj = obj
			bestX = append([]float64(nil), cand...)
		}
	}
	return bestX, bestObj, bestX != nil
}

// rowsFeasible checks every constraint row at x to a fixed tolerance.
func rowsFeasible(p *Problem, x []float64) bool {
	const tol = 1e-7
	for _, r := range p.LP.Rows {
		dot := 0.0
		for _, e := range r.Coef {
			dot += e.Val * x[e.Var]
		}
		switch r.Sense {
		case lp.LE:
			if dot > r.RHS+tol {
				return false
			}
		case lp.GE:
			if dot < r.RHS-tol {
				return false
			}
		case lp.EQ:
			if math.Abs(dot-r.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// intIndexOf returns the position of variable j in the Integer list.
func intIndexOf(integers []int, j int) int {
	for t, v := range integers {
		if v == j {
			return t
		}
	}
	return -1
}

// mostFractional returns the integer-constrained variable farthest from an
// integer value, or -1 if all are integral.
func mostFractional(x []float64, integers []int) int {
	best, bestDist := -1, intEps
	for _, j := range integers {
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}
