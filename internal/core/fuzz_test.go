package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeAssignments turns fuzzer bytes into assignments: each 40-byte
// record is five little-endian float64s (comm, comp, mem, commStart,
// compStart). Task names are positional so duplicates never trip the
// name check — the fuzzer should hunt feasibility bugs, not string
// collisions.
func decodeAssignments(data []byte) []Assignment {
	const rec = 5 * 8
	n := len(data) / rec
	if n > 64 {
		n = 64
	}
	out := make([]Assignment, 0, n)
	names := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
	for i := 0; i < n; i++ {
		f := func(j int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(data[i*rec+j*8:]))
		}
		out = append(out, Assignment{
			Task:      Task{Name: names[i : i+1], Comm: f(0), Comp: f(1), Mem: f(2)},
			CommStart: f(3),
			CompStart: f(4),
		})
	}
	return out
}

// encodeAssignments is the seed-corpus inverse of decodeAssignments.
func encodeAssignments(as []Assignment) []byte {
	var out []byte
	for _, a := range as {
		for _, v := range []float64{a.Task.Comm, a.Task.Comp, a.Task.Mem, a.CommStart, a.CompStart} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzScheduleValidate asserts the §3 feasibility checker's safety
// properties on arbitrary schedules: Validate never panics, it returns
// exactly the pairwise reference's error (reference_test.go) and
// PeakMemory exactly its bits, and it never accepts a schedule that
// violates the memory-capacity rule — an
// accepted schedule's resident memory, recomputed independently at
// every communication start, stays within capacity. It also pins the
// invariants an accepted schedule implies (finite times, per-assignment
// consistency), which is what the windowed MILP and the runtime rely on
// when they trust Validate as their post-check.
func FuzzScheduleValidate(f *testing.F) {
	// The paper's Fig 2 example shape: two tasks back to back.
	f.Add(4.0, encodeAssignments([]Assignment{
		{Task: Task{Name: "a", Comm: 2, Comp: 1, Mem: 2}, CommStart: 0, CompStart: 2},
		{Task: Task{Name: "b", Comm: 1, Comp: 2, Mem: 1}, CommStart: 2, CompStart: 3},
	}))
	// A capacity violation Validate must reject.
	f.Add(1.0, encodeAssignments([]Assignment{
		{Task: Task{Name: "a", Comm: 1, Comp: 3, Mem: 1}, CommStart: 0, CompStart: 1},
		{Task: Task{Name: "b", Comm: 1, Comp: 1, Mem: 1}, CommStart: 1, CompStart: 2},
	}))
	// NaN/Inf smuggling: non-finite start times must be rejected, not
	// waved through by false comparisons.
	f.Add(2.0, encodeAssignments([]Assignment{
		{Task: Task{Name: "a", Comm: 1, Comp: 1, Mem: 2}, CommStart: math.NaN(), CompStart: 1},
	}))
	f.Add(math.NaN(), encodeAssignments([]Assignment{
		{Task: Task{Name: "a", Comm: 1, Comp: 1, Mem: 2}, CommStart: 0, CompStart: 1},
	}))
	f.Add(0.0, []byte{})

	f.Fuzz(func(t *testing.T, capacity float64, data []byte) {
		s := NewSchedule(capacity)
		for _, a := range decodeAssignments(data) {
			s.Append(a)
		}
		err := s.Validate() // must never panic
		if want := referenceValidate(s); errText(err) != errText(want) {
			t.Fatalf("Validate %s (%v), reference %s (%v)\n%s",
				faultClass(err), err, faultClass(want), want, s)
		}
		if got, want := s.PeakMemory(), referencePeakMemory(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PeakMemory %v, reference %v\n%s", got, want, s)
		}
		if err != nil {
			return
		}
		// Accepted: replay the memory rule independently. Usage only
		// grows at communication starts, so checking each start
		// suffices (paper Thm 2); the sums run in slice order, the
		// same order Validate used, so float rounding matches.
		for _, a := range s.Assignments {
			if math.IsNaN(a.CommStart) || math.IsInf(a.CommStart, 0) ||
				math.IsNaN(a.CompStart) || math.IsInf(a.CompStart, 0) {
				t.Fatalf("accepted schedule has non-finite times: %+v", a)
			}
			use := 0.0
			for _, b := range s.Assignments {
				if b.CommStart <= a.CommStart+1e-9 && b.CompStart+b.Task.Comp > a.CommStart+1e-9 {
					use += b.Task.Mem
				}
			}
			if use > capacity+1e-9 {
				t.Fatalf("accepted schedule uses %g memory at t=%g with capacity %g:\n%s",
					use, a.CommStart, capacity, s)
			}
		}
	})
}
