package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Assignment records when one task runs: the start of its communication on
// the link and the start of its computation on the processing unit. Both
// resources process the task non-preemptively, so the end times are the
// starts plus the task durations.
type Assignment struct {
	Task      Task
	CommStart float64
	CompStart float64
}

// CommEnd returns the completion time of the task's data transfer.
func (a Assignment) CommEnd() float64 { return a.CommStart + a.Task.Comm }

// CompEnd returns the completion time of the task's computation; the
// task's memory is released at this instant.
func (a Assignment) CompEnd() float64 { return a.CompStart + a.Task.Comp }

// Schedule is a complete solution to a problem DT instance: one assignment
// per task. Assignments are kept in communication-start order.
type Schedule struct {
	Capacity    float64
	Assignments []Assignment
}

// NewSchedule returns an empty schedule for the given memory capacity.
func NewSchedule(capacity float64) *Schedule {
	return &Schedule{Capacity: capacity}
}

// NewScheduleCap returns an empty schedule with room for n assignments
// preallocated, so a builder that knows its task count appends without
// regrowing the backing array. n == 0 leaves Assignments nil, exactly
// like NewSchedule.
func NewScheduleCap(capacity float64, n int) *Schedule {
	s := &Schedule{Capacity: capacity}
	if n > 0 {
		s.Assignments = make([]Assignment, 0, n)
	}
	return s
}

// Append adds an assignment. Callers must append in communication-start
// order (every builder in this repository does); Validate re-checks.
func (s *Schedule) Append(a Assignment) { s.Assignments = append(s.Assignments, a) }

// Makespan returns the completion time of the last computation, or 0 for
// an empty schedule.
func (s *Schedule) Makespan() float64 {
	m := 0.0
	for _, a := range s.Assignments {
		if e := a.CompEnd(); e > m {
			m = e
		}
	}
	return m
}

// CommOrder returns task names in order of communication start.
func (s *Schedule) CommOrder() []string {
	idx := s.sortedBy(func(a Assignment) float64 { return a.CommStart })
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = s.Assignments[j].Task.Name
	}
	return out
}

// CompOrder returns task names in order of computation start.
func (s *Schedule) CompOrder() []string {
	idx := s.sortedBy(func(a Assignment) float64 { return a.CompStart })
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = s.Assignments[j].Task.Name
	}
	return out
}

// Permutation reports whether the communication order equals the
// computation order. Paper Prop 1 exhibits instances where no optimal
// schedule is a permutation schedule.
func (s *Schedule) Permutation() bool {
	a, b := s.CommOrder(), s.CompOrder()
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *Schedule) sortedBy(key func(Assignment) float64) []int {
	idx := make([]int, len(s.Assignments))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return key(s.Assignments[idx[i]]) < key(s.Assignments[idx[j]])
	})
	return idx
}

// PeakMemory returns the maximum total memory simultaneously resident.
// Memory usage only increases at communication starts, so the peak is
// attained at one of them. One event sweep (residentAtStarts) estimates
// the resident memory at every start; only the starts whose estimate
// lies within twice the sweep's error bound of the largest estimate are
// recounted with MemoryInUseAt, so the result is bit-identical to the
// maximum of MemoryInUseAt over all starts.
func (s *Schedule) PeakMemory() float64 {
	use, bound, ok := s.residentAtStarts()
	floor := math.Inf(-1)
	if ok {
		for _, u := range use {
			floor = math.Max(floor, u)
		}
		floor -= 2 * bound
	}
	peak := 0.0
	for i, a := range s.Assignments {
		if ok && use[i] < floor {
			continue
		}
		if v := s.MemoryInUseAt(a.CommStart); v > peak {
			peak = v
		}
	}
	return peak
}

// MemoryInUseAt returns the total memory of tasks resident at time t,
// counting a task as resident on [CommStart, CompEnd). Releases at exactly
// t are treated as having happened (the model frees memory at computation
// end, so a transfer may start at the same instant a computation ends).
func (s *Schedule) MemoryInUseAt(t float64) float64 {
	use := 0.0
	for _, b := range s.Assignments {
		if b.CommStart <= t+tolerance && b.CompEnd() > t+tolerance {
			use += b.Task.Mem
		}
	}
	return use
}

// tolerance absorbs floating-point noise when comparing event times.
const tolerance = 1e-9

// Validate checks that the schedule is feasible:
//
//   - every assignment is internally consistent (computation starts no
//     earlier than the transfer completes),
//   - the communication link executes one transfer at a time,
//   - the processing unit executes one computation at a time,
//   - at the start of every communication the memory constraint holds
//     (usage only increases at communication starts, so checking there is
//     sufficient — paper Thm 2's membership-in-NP argument).
//
// A feasible schedule is proven feasible in O(n log n) by the event
// sweep (sweep.go). Once the sweep finds or suspects a fault, the
// slice-order pairwise scan (firstFault) and an exact MemoryInUseAt
// recount decide, so the verdict and the error — the fault and the pair
// it names — are exactly those of a full pairwise check, even on a
// schedule with several faults.
func (s *Schedule) Validate() error {
	if math.IsNaN(s.Capacity) {
		return fmt.Errorf("core: schedule capacity is NaN")
	}
	for _, a := range s.Assignments {
		if a.check() != nil {
			return s.firstFault()
		}
	}
	spans := make([]span, 0, len(s.Assignments))
	if s.clashSuspected(spans, linkInterval) || s.clashSuspected(spans, unitInterval) {
		if err := s.firstFault(); err != nil {
			return err
		}
	}
	use, bound, ok := s.residentAtStarts()
	limit := s.Capacity + tolerance
	for i, a := range s.Assignments {
		if ok && use[i] < limit-bound {
			continue // provably within capacity
		}
		if exact := s.MemoryInUseAt(a.CommStart); exact > limit {
			return fmt.Errorf("core: memory %g exceeds capacity %g at t=%g (start of %q)",
				exact, s.Capacity, a.CommStart, a.Task.Name)
		}
	}
	return nil
}

// check applies the per-assignment rules: a valid task, finite
// non-negative start times, and a computation that starts no earlier
// than its transfer completes.
func (a Assignment) check() error {
	if err := a.Task.Validate(); err != nil {
		return err
	}
	// A NaN or infinite start time would sail through every comparison
	// (all NaN comparisons are false), so an infeasible schedule could
	// validate; reject outright.
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
	return nil
}

// firstFault scans the assignments in slice order, checking each one's
// own rules and then its overlap with every later assignment on both
// resources, and returns the first fault found (nil if none). It is
// O(n²), so Validate runs it only after the sweep has found or suspected
// a fault.
func (s *Schedule) firstFault() error {
	for i, a := range s.Assignments {
		if err := a.check(); err != nil {
			return err
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
	return nil
}

// overlap reports whether the half-open intervals [a1,a2) and [b1,b2)
// intersect. Zero-length intervals never overlap anything.
func overlap(a1, a2, b1, b2 float64) bool {
	if a2-a1 <= tolerance || b2-b1 <= tolerance {
		return false
	}
	return a1 < b2-tolerance && b1 < a2-tolerance
}

// IdleComm returns the total idle time on the communication link before
// the last transfer completes.
func (s *Schedule) IdleComm() float64 {
	if len(s.Assignments) == 0 {
		return 0
	}
	idx := s.sortedBy(func(a Assignment) float64 { return a.CommStart })
	idle, cur := 0.0, 0.0
	for _, j := range idx {
		a := s.Assignments[j]
		if a.CommStart > cur {
			idle += a.CommStart - cur
		}
		if e := a.CommEnd(); e > cur {
			cur = e
		}
	}
	return idle
}

// IdleComp returns the total idle time on the processing unit before the
// last computation completes.
func (s *Schedule) IdleComp() float64 {
	if len(s.Assignments) == 0 {
		return 0
	}
	idx := s.sortedBy(func(a Assignment) float64 { return a.CompStart })
	idle, cur := 0.0, 0.0
	for _, j := range idx {
		a := s.Assignments[j]
		if a.CompStart > cur {
			idle += a.CompStart - cur
		}
		if e := a.CompEnd(); e > cur {
			cur = e
		}
	}
	return idle
}

// Overlap returns the total time during which the link and the processing
// unit are simultaneously busy — the communication-computation overlap the
// heuristics try to maximise. The transfer and computation intervals are
// each sorted by start and merged with two pointers, which visits each
// intersecting pair once: O(n log n) on a feasible schedule, where the
// intervals of one resource do not overlap. The pair terms are then added
// in the pairwise reference's order (transfers in slice order, then
// computations in slice order), so the sum is bit-identical to it
// (reference_test.go).
func (s *Schedule) Overlap() float64 {
	type iv struct {
		a, b float64
		k    int // position among the resource's intervals in slice order
	}
	var comm, comp []iv
	for _, a := range s.Assignments {
		if a.Task.Comm > 0 {
			comm = append(comm, iv{a.CommStart, a.CommEnd(), len(comm)})
		}
		if a.Task.Comp > 0 {
			comp = append(comp, iv{a.CompStart, a.CompEnd(), len(comp)})
		}
	}
	for _, v := range [][]iv{comm, comp} {
		sort.Slice(v, func(i, j int) bool { return v[i].a < v[j].a })
	}
	type term struct {
		x, y int
		d    float64
	}
	var terms []term
	first := 0 // computations before it end by the current transfer's start
	for _, x := range comm {
		for first < len(comp) && comp[first].b <= x.a {
			first++
		}
		// Starts are sorted, so no computation from the first one that
		// starts at or after x's end can meet x.
		for _, y := range comp[first:] {
			if y.a >= x.b {
				break
			}
			lo, hi := math.Max(x.a, y.a), math.Min(x.b, y.b)
			if hi > lo {
				terms = append(terms, term{x.k, y.k, hi - lo})
			}
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].x != terms[j].x {
			return terms[i].x < terms[j].x
		}
		return terms[i].y < terms[j].y
	})
	total := 0.0
	for _, t := range terms {
		total += t.d
	}
	return total
}

// EventTimes returns every distinct communication/computation start and
// end time, sorted ascending — the instants at which resource or memory
// state can change (Gantt tick marks, memory counter samples).
func (s *Schedule) EventTimes() []float64 {
	out := make([]float64, 0, 4*len(s.Assignments))
	for _, a := range s.Assignments {
		out = append(out, a.CommStart, a.CommEnd(), a.CompStart, a.CompEnd())
	}
	sort.Float64s(out)
	k := 0
	for _, t := range out {
		if k == 0 || t != out[k-1] {
			out[k] = t
			k++
		}
	}
	return out[:k]
}

// String renders a compact textual listing of the schedule.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule (C=%g, makespan=%g):\n", s.Capacity, s.Makespan())
	idx := s.sortedBy(func(a Assignment) float64 { return a.CommStart })
	for _, j := range idx {
		a := s.Assignments[j]
		fmt.Fprintf(&b, "  %-8s comm [%8.3f, %8.3f)  comp [%8.3f, %8.3f)  mem %g\n",
			a.Task.Name, a.CommStart, a.CommEnd(), a.CompStart, a.CompEnd(), a.Task.Mem)
	}
	return b.String()
}
