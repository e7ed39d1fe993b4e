package core

// This file preserves the pre-sweep feasibility checker — the pairwise
// overlap scan and the O(n²) resident-memory rescan — and the pairwise
// busy-overlap sum verbatim as reference implementations.
// differential_test.go asserts that the event-sweep Validate returns the
// same verdict (and the same error), and that the sweep PeakMemory and
// the merged Overlap return the same bits. When changing the feasibility
// rules or the overlap definition (not their speed), change BOTH.

import (
	"fmt"
	"math"
)

// Exported for the external-package chem differential test.
var (
	ReferenceValidate   = referenceValidate
	ReferencePeakMemory = referencePeakMemory
	ReferenceOverlap    = referenceOverlap
)

// referencePeakMemory returns the maximum total memory simultaneously
// resident. Memory usage only increases at communication starts, so the
// peak is attained at one of them.
func referencePeakMemory(s *Schedule) float64 {
	peak := 0.0
	for _, a := range s.Assignments {
		if use := s.MemoryInUseAt(a.CommStart); use > peak {
			peak = use
		}
	}
	return peak
}

// referenceValidate checks that the schedule is feasible:
//
//   - every assignment is internally consistent (computation starts no
//     earlier than the transfer completes),
//   - the communication link executes one transfer at a time,
//   - the processing unit executes one computation at a time,
//   - at the start of every communication the memory constraint holds
//     (usage only increases at communication starts, so checking there is
//     sufficient — paper Thm 2's membership-in-NP argument).
func referenceValidate(s *Schedule) error {
	if math.IsNaN(s.Capacity) {
		return fmt.Errorf("core: schedule capacity is NaN")
	}
	for i, a := range s.Assignments {
		if err := a.Task.Validate(); err != nil {
			return err
		}
		// A NaN or infinite start time would sail through every
		// comparison below (all NaN comparisons are false), so an
		// infeasible schedule could validate; reject outright.
		if math.IsNaN(a.CommStart) || math.IsInf(a.CommStart, 0) {
			return fmt.Errorf("core: task %q has non-finite communication start %g", a.Task.Name, a.CommStart)
		}
		if math.IsNaN(a.CompStart) || math.IsInf(a.CompStart, 0) {
			return fmt.Errorf("core: task %q has non-finite computation start %g", a.Task.Name, a.CompStart)
		}
		if a.CommStart < -tolerance {
			return fmt.Errorf("core: task %q communication starts at negative time %g", a.Task.Name, a.CommStart)
		}
		if a.CompStart < a.CommEnd()-tolerance {
			return fmt.Errorf("core: task %q computes at %g before its transfer completes at %g",
				a.Task.Name, a.CompStart, a.CommEnd())
		}
		for j := i + 1; j < len(s.Assignments); j++ {
			b := s.Assignments[j]
			if overlap(a.CommStart, a.CommEnd(), b.CommStart, b.CommEnd()) {
				return fmt.Errorf("core: transfers of %q [%g,%g) and %q [%g,%g) overlap on the link",
					a.Task.Name, a.CommStart, a.CommEnd(), b.Task.Name, b.CommStart, b.CommEnd())
			}
			if overlap(a.CompStart, a.CompEnd(), b.CompStart, b.CompEnd()) {
				return fmt.Errorf("core: computations of %q [%g,%g) and %q [%g,%g) overlap on the processing unit",
					a.Task.Name, a.CompStart, a.CompEnd(), b.Task.Name, b.CompStart, b.CompEnd())
			}
		}
	}
	for _, a := range s.Assignments {
		if use := s.MemoryInUseAt(a.CommStart); use > s.Capacity+tolerance {
			return fmt.Errorf("core: memory %g exceeds capacity %g at t=%g (start of %q)",
				use, s.Capacity, a.CommStart, a.Task.Name)
		}
	}
	return nil
}

// referenceOverlap returns the total time during which the link and the
// processing unit are simultaneously busy — the communication-computation
// overlap the heuristics try to maximise.
func referenceOverlap(s *Schedule) float64 {
	type iv struct{ a, b float64 }
	var comm, comp []iv
	for _, a := range s.Assignments {
		if a.Task.Comm > 0 {
			comm = append(comm, iv{a.CommStart, a.CommEnd()})
		}
		if a.Task.Comp > 0 {
			comp = append(comp, iv{a.CompStart, a.CompEnd()})
		}
	}
	total := 0.0
	for _, x := range comm {
		for _, y := range comp {
			lo, hi := math.Max(x.a, y.a), math.Min(x.b, y.b)
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}
