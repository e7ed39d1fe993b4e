// Package lpsched implements the paper's mixed-integer linear programming
// formulation of the data-transfer problem (§4.5) and the iterative
// windowed heuristic lp.k built on it. The MILP is the only strategy in
// the paper allowed to order the two resources differently.
//
// Variables, for tasks i ≠ j of a window:
//
//	s_i, s'_i  — communication / computation start times (e = s + CM,
//	             e' = s' + CP are folded in by substitution),
//	l          — makespan,
//	a_ij       — 1 iff j's transfer precedes i's on the link,
//	b_ij       — 1 iff j's computation precedes i's on the processing unit,
//	c_ij       — 1 iff j's computation completes before i's transfer starts.
//
// Constraints (L = Σ(CM+CP) is the big-M):
//
//	e'_i ≤ l                       (completion)
//	e_i  ≤ s'_i                    (a task computes after its transfer)
//	e_j  ≤ s_i + (1−a_ij)L,  e_i ≤ s_j + a_ij L      (link exclusivity)
//	e'_j ≤ s'_i + (1−b_ij)L, e'_i ≤ s'_j + b_ij L    (unit exclusivity)
//	e'_j ≤ s_i + (1−c_ij)L,  s_i ≤ e'_j + c_ij L     (c consistency)
//	Σ_{r≠i} (a_ir − c_ir)·Mem_r + Mem_i ≤ C          (memory at s_i)
//	a_ij + a_ji = 1, b_ij + b_ji = 1,
//	c_ij ≤ a_ij, c_ij ≤ b_ij, c_ij + c_ji ≤ 1        (helpers)
package lpsched

import (
	"fmt"
	"math"

	"transched/internal/core"
	"transched/internal/lp"
	"transched/internal/milp"
)

// winTask is one task of a window MILP, possibly with one or both events
// already committed by earlier windows.
type winTask struct {
	task core.Task
	// commFixed/compFixed indicate the event times are committed.
	commFixed bool
	compFixed bool
	commStart float64
	compStart float64
	// free tasks additionally respect the window's horizon: their events
	// may not be scheduled before the boundary.
	boundary float64
}

// formulation maps the window to MILP variable indices.
type formulation struct {
	prob  milp.Problem
	tasks []winTask
	// sVar[i], spVar[i]: comm/comp start variables; lVar: makespan.
	sVar, spVar []int
	lVar        int
	// aVar[i][j], bVar, cVar: pairwise booleans (i != j), -1 on diagonal.
	aVar, bVar, cVar [][]int
}

const tol = 1e-6

// buildFormulation assembles the paper's MILP over the window's tasks,
// with the memory capacity C. Boolean variables whose value is implied by
// fixed events are pre-fixed through equal bounds, which both shrinks the
// branch-and-bound tree and encodes the rolling-horizon commitments.
func buildFormulation(tasks []winTask, capacity float64) *formulation {
	n := len(tasks)
	f := &formulation{tasks: tasks}

	bigM := 1.0
	for _, t := range tasks {
		bigM += t.task.Comm + t.task.Comp
		// Committed events can lie beyond the sum of durations.
		if t.commFixed {
			bigM += t.commStart
		}
		if t.compFixed {
			bigM += t.compStart
		}
	}

	nv := 0
	alloc := func() int { nv++; return nv - 1 }
	f.sVar = make([]int, n)
	f.spVar = make([]int, n)
	for i := range tasks {
		f.sVar[i] = alloc()
		f.spVar[i] = alloc()
	}
	f.lVar = alloc()
	f.aVar = newSquare(n)
	f.bVar = newSquare(n)
	f.cVar = newSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			f.aVar[i][j] = alloc()
			f.bVar[i][j] = alloc()
			f.cVar[i][j] = alloc()
		}
	}

	p := &f.prob
	p.LP.NumVars = nv
	p.LP.Objective = make([]float64, nv)
	p.LP.Objective[f.lVar] = 1
	lower := make([]float64, nv)
	upper := make([]float64, nv)
	for v := range upper {
		upper[v] = math.Inf(1)
	}

	// Bounds on starts and booleans.
	for i, t := range tasks {
		if t.commFixed {
			lower[f.sVar[i]], upper[f.sVar[i]] = t.commStart, t.commStart
		} else {
			lower[f.sVar[i]] = t.boundary
		}
		if t.compFixed {
			lower[f.spVar[i]], upper[f.spVar[i]] = t.compStart, t.compStart
		} else if !t.commFixed {
			lower[f.spVar[i]] = t.boundary
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for _, v := range [3]int{f.aVar[i][j], f.bVar[i][j], f.cVar[i][j]} {
				upper[v] = 1
			}
			f.prob.Integer = append(f.prob.Integer,
				f.aVar[i][j], f.bVar[i][j], f.cVar[i][j])
		}
	}
	p.LP.Lower, p.LP.Upper = lower, upper

	// Pre-fix booleans implied by committed events.
	f.prefixBooleans(lower, upper)

	// Completion and validity.
	for i, t := range tasks {
		p.LP.AddRow(lp.LE, -t.task.Comp, fmt.Sprintf("complete[%d]", i),
			lp.Entry{Var: f.spVar[i], Val: 1}, lp.Entry{Var: f.lVar, Val: -1})
		p.LP.AddRow(lp.LE, -t.task.Comm, fmt.Sprintf("valid[%d]", i),
			lp.Entry{Var: f.sVar[i], Val: 1}, lp.Entry{Var: f.spVar[i], Val: -1})
	}

	// Pairwise exclusivity and c-consistency.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			cmj, cpj := tasks[j].task.Comm, tasks[j].task.Comp
			// e_j <= s_i + (1 - a_ij) L    <=>  s_j - s_i + a_ij L <= L - CM_j
			p.LP.AddRow(lp.LE, bigM-cmj, fmt.Sprintf("link[%d,%d]", i, j),
				lp.Entry{Var: f.sVar[j], Val: 1}, lp.Entry{Var: f.sVar[i], Val: -1},
				lp.Entry{Var: f.aVar[i][j], Val: bigM})
			// e'_j <= s'_i + (1 - b_ij) L
			p.LP.AddRow(lp.LE, bigM-cpj, fmt.Sprintf("unit[%d,%d]", i, j),
				lp.Entry{Var: f.spVar[j], Val: 1}, lp.Entry{Var: f.spVar[i], Val: -1},
				lp.Entry{Var: f.bVar[i][j], Val: bigM})
			// e'_j <= s_i + (1 - c_ij) L
			p.LP.AddRow(lp.LE, bigM-cpj, fmt.Sprintf("cdef[%d,%d]", i, j),
				lp.Entry{Var: f.spVar[j], Val: 1}, lp.Entry{Var: f.sVar[i], Val: -1},
				lp.Entry{Var: f.cVar[i][j], Val: bigM})
			// s_i <= e'_j + c_ij L
			p.LP.AddRow(lp.LE, cpj, fmt.Sprintf("cneg[%d,%d]", i, j),
				lp.Entry{Var: f.sVar[i], Val: 1}, lp.Entry{Var: f.spVar[j], Val: -1},
				lp.Entry{Var: f.cVar[i][j], Val: -bigM})
		}
	}

	// Helper constraints.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.LP.AddRow(lp.EQ, 1, fmt.Sprintf("aone[%d,%d]", i, j),
				lp.Entry{Var: f.aVar[i][j], Val: 1}, lp.Entry{Var: f.aVar[j][i], Val: 1})
			p.LP.AddRow(lp.EQ, 1, fmt.Sprintf("bone[%d,%d]", i, j),
				lp.Entry{Var: f.bVar[i][j], Val: 1}, lp.Entry{Var: f.bVar[j][i], Val: 1})
			p.LP.AddRow(lp.LE, 1, fmt.Sprintf("cone[%d,%d]", i, j),
				lp.Entry{Var: f.cVar[i][j], Val: 1}, lp.Entry{Var: f.cVar[j][i], Val: 1})
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			p.LP.AddRow(lp.LE, 0, fmt.Sprintf("ca[%d,%d]", i, j),
				lp.Entry{Var: f.cVar[i][j], Val: 1}, lp.Entry{Var: f.aVar[i][j], Val: -1})
			p.LP.AddRow(lp.LE, 0, fmt.Sprintf("cb[%d,%d]", i, j),
				lp.Entry{Var: f.cVar[i][j], Val: 1}, lp.Entry{Var: f.bVar[i][j], Val: -1})
		}
	}

	// Memory at every transfer start.
	for i, t := range tasks {
		entries := make([]lp.Entry, 0, 2*(n-1))
		for r := 0; r < n; r++ {
			if r == i || tasks[r].task.Mem == 0 {
				continue
			}
			entries = append(entries,
				lp.Entry{Var: f.aVar[i][r], Val: tasks[r].task.Mem},
				lp.Entry{Var: f.cVar[i][r], Val: -tasks[r].task.Mem})
		}
		p.LP.AddRow(lp.LE, capacity-t.task.Mem, fmt.Sprintf("mem[%d]", i), entries...)
	}

	return f
}

func newSquare(n int) [][]int {
	sq := make([][]int, n)
	for i := range sq {
		sq[i] = make([]int, n)
		for j := range sq[i] {
			sq[i][j] = -1
		}
	}
	return sq
}

// startTimes reads every task's transfer and computation start from a
// MILP solution vector.
func (f *formulation) startTimes(x []float64) (sVals, spVals []float64) {
	sVals = make([]float64, len(f.sVar))
	spVals = make([]float64, len(f.spVar))
	for i := range f.sVar {
		sVals[i] = x[f.sVar[i]]
		spVals[i] = x[f.spVar[i]]
	}
	return sVals, spVals
}

// prefixBooleans fixes a/b/c variables whose value follows from committed
// event times, tightening bounds in place.
func (f *formulation) prefixBooleans(lower, upper []float64) {
	n := len(f.tasks)
	fix := func(v int, val float64) {
		lower[v], upper[v] = val, val
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ti, tj := f.tasks[i], f.tasks[j]
			// a_ij: j's transfer before i's.
			if ti.commFixed && tj.commFixed {
				if before(tj.commStart, tj.task.Comm, ti.commStart, j, i) {
					fix(f.aVar[i][j], 1)
				} else {
					fix(f.aVar[i][j], 0)
				}
			} else if tj.commFixed && !ti.commFixed {
				// Free transfers happen at or after the boundary, which is
				// at or after every committed transfer's end.
				fix(f.aVar[i][j], 1)
			} else if ti.commFixed && !tj.commFixed {
				fix(f.aVar[i][j], 0)
			}
			// b_ij: j's computation before i's.
			if ti.compFixed && tj.compFixed {
				if before(tj.compStart, tj.task.Comp, ti.compStart, j, i) {
					fix(f.bVar[i][j], 1)
				} else {
					fix(f.bVar[i][j], 0)
				}
			} else if tj.compFixed && !ti.compFixed {
				fix(f.bVar[i][j], 1)
			} else if ti.compFixed && !tj.compFixed {
				fix(f.bVar[i][j], 0)
			}
			// c_ij: j's computation complete before i's transfer starts.
			if ti.commFixed && tj.compFixed {
				if tj.compStart+tj.task.Comp <= ti.commStart+tol {
					fix(f.cVar[i][j], 1)
				} else {
					fix(f.cVar[i][j], 0)
				}
			} else if ti.commFixed && !tj.compFixed && !tj.commFixed {
				// j is entirely in the future of a committed transfer.
				fix(f.cVar[i][j], 0)
			}
		}
	}
}

// before reports whether an event at (start1, dur1) precedes an event
// starting at start2, breaking exact ties (e.g. two zero-length transfers)
// by index so exactly one of a_ij/a_ji is set.
func before(start1, dur1, start2 float64, idx1, idx2 int) bool {
	e1 := start1 + dur1
	if math.Abs(e1-start2) <= tol && math.Abs(dur1) <= tol {
		return idx1 < idx2
	}
	return e1 <= start2+tol
}
