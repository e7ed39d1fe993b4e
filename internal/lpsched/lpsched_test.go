package lpsched

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/milp"
	"transched/internal/paperdata"
	"transched/internal/testutil"
	"transched/internal/trace"
)

// TestExactTable2 solves the paper's Prop 1 instance to optimality: the
// MILP (which may order the two resources differently) reaches makespan
// 22, strictly better than the best common-order schedule, and the
// resulting schedule is not a permutation schedule.
func TestExactTable2(t *testing.T) {
	in := paperdata.Table2()
	s, sol, err := SolveExact(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-paperdata.Table2DifferentOrderMakespan) > 1e-6 {
		t.Fatalf("MILP objective = %g, want %g", sol.Objective, paperdata.Table2DifferentOrderMakespan)
	}
	if sol.Status != milp.Optimal {
		t.Fatalf("status = %v, want optimal (gap 0)", sol.Status)
	}
	if sol.Bound < sol.Objective-1e-9 || sol.Bound > sol.Objective+1e-9 {
		t.Fatalf("optimality gap: bound %g vs objective %g", sol.Bound, sol.Objective)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("repaired MILP schedule invalid: %v\n%s", err, s)
	}
	if math.Abs(s.Makespan()-22) > 1e-6 {
		t.Fatalf("makespan = %g, want 22", s.Makespan())
	}
	if s.Permutation() {
		t.Error("optimal Table 2 schedule should order resources differently (paper Prop 1)")
	}
}

// TestExactMatchesBruteForceSmall: on tiny instances, the exact MILP is at
// least as good as the best common-order schedule and at least OMIM.
func TestExactMatchesBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(3) // 2..4 tasks keeps each solve fast
		in := testutil.RandomInstance(rng, n, 5)
		s, sol, err := SolveExact(in, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid: %v\n%s", trial, err, s)
		}
		_, common := flowshop.BestPermutationLimited(in.Tasks, in.Capacity)
		omim := flowshop.OMIM(in.Tasks)
		if sol.Objective > common+1e-6 {
			t.Fatalf("trial %d: MILP %g worse than best common order %g", trial, sol.Objective, common)
		}
		if sol.Objective < omim-1e-6 {
			t.Fatalf("trial %d: MILP %g below OMIM %g", trial, sol.Objective, omim)
		}
		if s.Makespan() > sol.Objective+1e-6 {
			t.Fatalf("trial %d: repaired makespan %g above MILP objective %g", trial, s.Makespan(), sol.Objective)
		}
	}
}

// TestWindowedFeasible: lp.k yields valid schedules containing all tasks,
// at or above OMIM, for several window sizes.
func TestWindowedFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		in := testutil.RandomInstance(rng, 6+rng.Intn(6), 5)
		omim := flowshop.OMIM(in.Tasks)
		for _, k := range []int{3, 4} {
			res, err := Solve(in, Options{K: k, MaxNodesPerWindow: 1000})
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			s := res.Schedule
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d k=%d: invalid: %v\n%s", trial, k, err, s)
			}
			if len(s.Assignments) != in.N() {
				t.Fatalf("trial %d k=%d: %d assignments for %d tasks", trial, k, len(s.Assignments), in.N())
			}
			if s.Makespan() < omim-1e-6 {
				t.Fatalf("trial %d k=%d: makespan %g below OMIM %g", trial, k, s.Makespan(), omim)
			}
			if res.Windows != (in.N()+k-1)/k {
				t.Fatalf("trial %d k=%d: %d windows for %d tasks", trial, k, res.Windows, in.N())
			}
		}
	}
}

// TestWindowedSingleWindowIsExact: with k >= n and no node cap pressure,
// lp.k solves the whole instance at once and matches SolveExact.
func TestWindowedSingleWindowIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 6; trial++ {
		in := testutil.RandomInstance(rng, 3+rng.Intn(2), 5)
		res, err := Solve(in, Options{K: in.N(), MaxNodesPerWindow: 200000})
		if err != nil {
			t.Fatal(err)
		}
		_, sol, err := SolveExact(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Schedule.Makespan()-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: single-window lp.k %g != exact %g",
				trial, res.Schedule.Makespan(), sol.Objective)
		}
	}
}

// TestWindowedTable3: lp.k on the Table 3 instance stays between OMIM and
// the sequential bound for every k the paper uses.
func TestWindowedTable3(t *testing.T) {
	in := paperdata.Table3()
	for _, k := range []int{3, 4, 5, 6} {
		res, err := Solve(in, Options{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		m := res.Schedule.Makespan()
		if m < paperdata.Table3Makespans["OMIM"]-1e-6 || m > in.SequentialMakespan()+1e-6 {
			t.Errorf("k=%d: makespan %g outside [%g, %g]",
				k, m, paperdata.Table3Makespans["OMIM"], in.SequentialMakespan())
		}
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	in := core.NewInstance([]core.Task{core.NewTask("A", 5, 1)}, 2)
	if _, err := Solve(in, Options{}); err == nil {
		t.Error("want error for task larger than capacity")
	}
	if _, _, err := SolveExact(in, 0); err == nil {
		t.Error("want error for task larger than capacity (exact)")
	}
}

func TestRepairIdempotentOnCleanSchedule(t *testing.T) {
	// A clean hand schedule must survive repair unchanged in makespan.
	s := paperdata.Table2DifferentOrderSchedule()
	r := repair(s)
	if err := r.Validate(); err != nil {
		t.Fatalf("repair broke a valid schedule: %v\n%s", err, r)
	}
	if r.Makespan() > s.Makespan()+1e-9 {
		t.Errorf("repair increased makespan %g -> %g", s.Makespan(), r.Makespan())
	}
}

func TestRepairFixesNoise(t *testing.T) {
	// Perturb a valid schedule by solver-scale noise; repair must produce
	// an exactly feasible schedule with (at most) the same makespan.
	rng := rand.New(rand.NewSource(313))
	for trial := 0; trial < 100; trial++ {
		in := testutil.RandomInstance(rng, 2+rng.Intn(6), 5)
		base, ok := flowshop.ScheduleOrderLimited(in.Tasks, rng.Perm(in.N()), in.Capacity)
		if !ok {
			t.Fatal("unschedulable random instance")
		}
		noisy := core.NewSchedule(in.Capacity)
		for _, a := range base.Assignments {
			a.CommStart += (rng.Float64() - 0.5) * 1e-7
			if a.CommStart < 0 {
				a.CommStart = 0
			}
			a.CompStart += (rng.Float64() - 0.5) * 1e-7
			if a.CompStart < a.CommEnd() {
				a.CompStart = a.CommEnd()
			}
			noisy.Append(a)
		}
		r := repair(noisy)
		if err := r.Validate(); err != nil {
			t.Fatalf("trial %d: repaired schedule invalid: %v", trial, err)
		}
		if r.Makespan() > base.Makespan()+1e-6 {
			t.Fatalf("trial %d: repair makespan %g above original %g", trial, r.Makespan(), base.Makespan())
		}
	}
}

// TestWindowedWorkersDeterminism: the windowed driver inherits the MILP's
// deterministic-parallelism contract — every Workers setting produces a
// bit-identical schedule and identical solver statistics.
func TestWindowedWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	for trial := 0; trial < 4; trial++ {
		in := testutil.RandomInstance(rng, 7+rng.Intn(4), 5)
		base, err := Solve(in, Options{K: 3, MaxNodesPerWindow: 2000, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			res, err := Solve(in, Options{K: 3, MaxNodesPerWindow: 2000, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.Nodes != base.Nodes || res.SimplexIters != base.SimplexIters ||
				res.Fallbacks != base.Fallbacks ||
				math.Float64bits(res.Gap) != math.Float64bits(base.Gap) {
				t.Fatalf("trial %d workers=%d: stats diverge: %+v vs %+v", trial, workers, res, base)
			}
			a, b := base.Schedule.Assignments, res.Schedule.Assignments
			if len(a) != len(b) {
				t.Fatalf("trial %d workers=%d: schedule lengths differ", trial, workers)
			}
			for i := range a {
				if a[i].Task.Name != b[i].Task.Name ||
					math.Float64bits(a[i].CommStart) != math.Float64bits(b[i].CommStart) ||
					math.Float64bits(a[i].CompStart) != math.Float64bits(b[i].CompStart) {
					t.Fatalf("trial %d workers=%d: assignment %d differs: %+v vs %+v",
						trial, workers, i, a[i], b[i])
				}
			}
		}
	}
}

// TestWindowedDeadline: an already-expired deadline (under a synthetic
// clock; the driver never reads the wall clock) degrades every window to
// its greedy fallback but still yields a complete valid schedule.
func TestWindowedDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	in := testutil.RandomInstance(rng, 9, 5)
	t0 := time.Unix(1000, 0)
	res, err := Solve(in, Options{
		K: 3, MaxNodesPerWindow: 2000,
		Deadline: t0.Add(-time.Second),
		Clock:    func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("invalid fallback schedule: %v\n%s", err, res.Schedule)
	}
	if len(res.Schedule.Assignments) != in.N() {
		t.Fatalf("%d assignments for %d tasks", len(res.Schedule.Assignments), in.N())
	}
	// The solver never got to search, so the bound cannot have closed:
	// unless the greedy completion was already optimal per window, the
	// result records fallbacks. Either way the run must not claim a
	// negative gap.
	if res.Gap < 0 {
		t.Fatalf("negative gap %g", res.Gap)
	}
	// And without the deadline the same options solve windows for real.
	full, err := Solve(in, Options{K: 3, MaxNodesPerWindow: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if full.Schedule.Makespan() > res.Schedule.Makespan()+1e-9 {
		t.Fatalf("search made the schedule worse: %g > %g",
			full.Schedule.Makespan(), res.Schedule.Makespan())
	}
}

// TestWindowedGapZeroOnSolvedWindows: with a generous node budget on small
// windows, every window solves to optimality and the driver reports gap 0.
func TestWindowedGapZeroOnSolvedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(341))
	in := testutil.RandomInstance(rng, 6, 5)
	res, err := Solve(in, Options{K: 3, MaxNodesPerWindow: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap != 0 {
		t.Fatalf("gap = %g, want 0 for fully solved windows", res.Gap)
	}
	if res.SimplexIters <= 0 {
		t.Fatalf("SimplexIters = %d, want > 0", res.SimplexIters)
	}
}

// TestSolveExactWithDeadline: a solve whose deadline has already passed
// returns the greedy seed as a valid schedule, reported Feasible (not
// proven optimal) with the objective it actually achieves.
func TestSolveExactWithDeadline(t *testing.T) {
	in := paperdata.Table2()
	t0 := time.Unix(1000, 0)
	s, sol, err := SolveExactWith(in, Options{
		Deadline: t0.Add(-time.Second),
		Clock:    func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatalf("expired exact solve: %v", err)
	}
	if sol.Status != milp.Feasible {
		t.Errorf("status = %v, want feasible (the greedy seed, unproven)", sol.Status)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("greedy schedule invalid: %v\n%s", err, s)
	}
	if s.Makespan() > sol.Objective+1e-6 {
		t.Errorf("makespan %g above reported objective %g", s.Makespan(), sol.Objective)
	}
}

func TestWindowedBoundaryCommitment(t *testing.T) {
	// Transfers committed in earlier windows must not move: run lp.3 and
	// check the final transfer order respects window grouping (a window's
	// transfers all start no earlier than every earlier window's).
	rng := rand.New(rand.NewSource(317))
	in := testutil.RandomInstance(rng, 9, 5)
	res, err := Solve(in, Options{K: 3, MaxNodesPerWindow: 2000})
	if err != nil {
		t.Fatal(err)
	}
	nameWindow := map[string]int{}
	for i, task := range in.Tasks {
		nameWindow[task.Name] = i / 3
	}
	order := res.Schedule.CommOrder()
	for i := 1; i < len(order); i++ {
		if nameWindow[order[i]] < nameWindow[order[i-1]] {
			t.Fatalf("transfer %s (window %d) after %s (window %d)",
				order[i], nameWindow[order[i]], order[i-1], nameWindow[order[i-1]])
		}
	}
}

// TestSolveExactNodeCapIsNotInfeasible: the first 6 tasks of a
// paper-seed trace at 1 mc are feasible (any C >= mc admits the
// sequential schedule), but a node cap stops the search long before it
// can prove anything. The solve must still return a valid schedule at
// or above OMIM, and never claim infeasibility.
func TestSolveExactNodeCapIsNotInfeasible(t *testing.T) {
	for _, tc := range []struct {
		app      string
		maxNodes int
	}{{"HF", 200}, {"CCSD", 3}} {
		t.Run(tc.app, func(t *testing.T) {
			trs, err := chem.Generate(tc.app, cluster.Cascade(), chem.Config{Seed: 20190415, Processes: 1})
			if err != nil {
				t.Fatal(err)
			}
			tasks := trs[0].Tasks[:6]
			in := core.NewInstance(tasks, (&trace.Trace{Tasks: tasks}).MinCapacity())
			s, sol, err := SolveExact(in, tc.maxNodes)
			if err != nil {
				t.Fatalf("%s at %d nodes: %v", tc.app, tc.maxNodes, err)
			}
			if sol.Status == milp.Infeasible {
				t.Fatalf("%s: node-capped search on a feasible instance reported infeasible after %d nodes", tc.app, sol.Nodes)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: invalid schedule: %v\n%s", tc.app, err, s)
			}
			if omim := flowshop.OMIM(tasks); s.Makespan() < omim-1e-6 {
				t.Errorf("%s: makespan %g below OMIM %g", tc.app, s.Makespan(), omim)
			}
			if s.Makespan() > sol.Objective+1e-6 || sol.Bound > sol.Objective+1e-6 {
				t.Errorf("%s: makespan %g, objective %g, bound %g out of order", tc.app, s.Makespan(), sol.Objective, sol.Bound)
			}
		})
	}
}
