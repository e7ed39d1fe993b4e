package core

import (
	"cmp"
	"math"
	"slices"
)

// The event sweep: Validate and PeakMemory walk the schedule's events in
// time order once, O(n log n), instead of comparing every pair of
// assignments and rescanning all n of them at each of the n transfer
// starts. Both sweeps only ever clear a schedule; whatever they cannot
// clear is decided by the exact slice-order predicates (overlap,
// MemoryInUseAt), so every verdict and every float is the one the
// pairwise checks give.

// span is one busy interval [start, end) of a resource.
type span struct{ start, end float64 }

func linkInterval(a Assignment) (float64, float64) { return a.CommStart, a.CommEnd() }
func unitInterval(a Assignment) (float64, float64) { return a.CompStart, a.CompEnd() }

// clashSuspected reports whether two of the resource's busy intervals may
// overlap in the sense of overlap. It sorts the intervals overlap does
// not ignore (longer than tolerance) by start and walks them keeping the
// running maximum end, flagging an interval that starts more than
// tolerance before it. Of an overlapping pair, the member sorted later
// starts more than tolerance before the other's end, which the running
// maximum is at least, so it is flagged: false proves that no pair
// overlaps. True is exact except at ULP edges, so the caller settles it
// with the pairwise predicate. buf is scratch storage for the intervals.
func (s *Schedule) clashSuspected(buf []span, interval func(Assignment) (float64, float64)) bool {
	buf = buf[:0]
	for _, a := range s.Assignments {
		if start, end := interval(a); !(end-start <= tolerance) {
			buf = append(buf, span{start, end})
		}
	}
	slices.SortFunc(buf, func(x, y span) int { return cmp.Compare(x.start, y.start) })
	maxEnd := math.Inf(-1)
	for _, sp := range buf {
		if sp.start < maxEnd-tolerance {
			return true
		}
		maxEnd = math.Max(maxEnd, sp.end)
	}
	return false
}

// event is one instant of the memory sweep, tagged by assignment index.
type event struct {
	t float64
	i int
}

// residentAtStarts returns use[i], the memory resident at the start of
// assignment i's transfer under MemoryInUseAt's rule, for every i. It
// walks the transfer starts and the computation ends in time order: a
// task's memory is added once its start is at most t+tolerance and
// subtracted once its end is, and a task whose end passes before its
// start is never counted.
//
// The walk sums in time order where MemoryInUseAt sums in slice order,
// and non-integer memories round differently, so use[i] is exact only
// up to bound: each running sum and each slice-order sum has at most 2n
// roundings, each at most 2⁻⁵³ of a partial sum no larger than ΣMem,
// and 4·(n+1)·2⁻⁵²·ΣMem covers both with room for the rounding of the
// caller's threshold. The bound may be +Inf when ΣMem overflows. ok is
// false when a start, a computation end or a memory is non-finite or a
// memory is negative; use and bound are then meaningless and the caller
// must recount every start.
func (s *Schedule) residentAtStarts() (use []float64, bound float64, ok bool) {
	n := len(s.Assignments)
	starts := make([]event, n)
	ends := make([]event, n)
	total := 0.0
	for i, a := range s.Assignments {
		m, end := a.Task.Mem, a.CompEnd()
		if !(m >= 0) || math.IsInf(m, 0) || !finite(a.CommStart) || !finite(end) {
			return nil, 0, false
		}
		total += m
		starts[i] = event{a.CommStart, i}
		ends[i] = event{end, i}
	}
	byTime := func(x, y event) int { return cmp.Compare(x.t, y.t) }
	slices.SortFunc(starts, byTime)
	slices.SortFunc(ends, byTime)

	const (
		waiting uint8 = iota
		resident
		released
	)
	state := make([]uint8, n)
	use = make([]float64, n)
	cur := 0.0
	started, ended := 0, 0
	for _, q := range starts {
		x := q.t + tolerance
		for ; ended < n && ends[ended].t <= x; ended++ {
			i := ends[ended].i
			if state[i] == resident {
				cur -= s.Assignments[i].Task.Mem
			}
			state[i] = released
		}
		for ; started < n && starts[started].t <= x; started++ {
			i := starts[started].i
			if state[i] == waiting {
				cur += s.Assignments[i].Task.Mem
				state[i] = resident
			}
		}
		use[q.i] = cur
	}
	return use, 4 * float64(n+1) * 0x1p-52 * total, true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
