package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// faultClass names the rule an error reports, so a mismatch says which
// rule the two checkers disagree on.
func faultClass(err error) string {
	if err == nil {
		return "feasible"
	}
	for _, c := range []struct{ needle, class string }{
		{"on the link", "link"},
		{"on the processing unit", "processing unit"},
		{"exceeds capacity", "memory"},
		{"before its transfer", "early computation"},
		{"negative time", "negative start"},
		{"non-finite", "non-finite start"},
	} {
		if strings.Contains(err.Error(), c.needle) {
			return c.class
		}
	}
	return "other"
}

// assertMatchesReference requires Validate and PeakMemory to agree with
// the pairwise reference exactly: the same error text (hence the same
// verdict, fault class and offending pair) and the same peak bits.
func assertMatchesReference(t *testing.T, label string, s *Schedule) {
	t.Helper()
	got, want := s.Validate(), referenceValidate(s)
	if errText(got) != errText(want) {
		t.Fatalf("%s: Validate %s (%v), reference %s (%v)\n%s",
			label, faultClass(got), got, faultClass(want), want, s)
	}
	if gp, wp := s.PeakMemory(), referencePeakMemory(s); math.Float64bits(gp) != math.Float64bits(wp) {
		t.Fatalf("%s: PeakMemory %v, reference %v\n%s", label, gp, wp, s)
	}
}

// randomSchedule lays tasks out back to back on both resources with
// random gaps, on an integer grid so that releases land exactly on
// transfer starts and starts coincide, then nudges some times by less
// than the 1e-9 tolerance. Durations are sometimes zero. Memories come
// from a few non-integer values (0.1+0.2 != 0.3), at a scale where one
// ulp of a sum can exceed the tolerance, so that summation order changes
// the rounding of near-equal sums.
func randomSchedule(rng *rand.Rand, n int) *Schedule {
	s := NewScheduleCap(0, n)
	scale := []float64{1, 1e8}[rng.Intn(2)]
	tauComm, tauComp := 0.0, 0.0
	jitter := func() float64 {
		if rng.Intn(4) != 0 {
			return 0
		}
		return float64(rng.Intn(5)-2) * 0.5e-9 // within ±1e-9
	}
	for i := 0; i < n; i++ {
		task := Task{
			Name: string(rune('A' + i%26)),
			Comm: float64(rng.Intn(4)),
			Comp: float64(rng.Intn(4)),
			Mem:  []float64{0.1, 0.2, 0.3, 0.7, 1.1}[rng.Intn(5)] * scale,
		}
		commStart := tauComm + float64(rng.Intn(2)) + jitter()
		compStart := math.Max(commStart+task.Comm, tauComp) + float64(rng.Intn(2)) + jitter()
		s.Append(Assignment{Task: task, CommStart: math.Max(commStart, 0), CompStart: compStart})
		tauComm = math.Max(tauComm, commStart+task.Comm)
		tauComp = math.Max(tauComp, compStart+task.Comp)
	}
	return s
}

// mutate injects one fault (or a near-fault within the tolerance) into a
// copy of the schedule.
func mutate(rng *rand.Rand, s *Schedule) *Schedule {
	c := &Schedule{Capacity: s.Capacity, Assignments: append([]Assignment(nil), s.Assignments...)}
	if len(c.Assignments) == 0 {
		return c
	}
	i, j := rng.Intn(len(c.Assignments)), rng.Intn(len(c.Assignments))
	a := &c.Assignments[i]
	switch rng.Intn(9) {
	case 0: // equal transfer starts: a link clash unless one is zero-length
		a.CommStart = c.Assignments[j].CommStart
	case 1: // equal computation starts
		a.CompStart = c.Assignments[j].CompStart
	case 2: // start a transfer just inside or outside another's end
		b := c.Assignments[j]
		a.CommStart = b.CommEnd() + float64(rng.Intn(5)-2)*0.5e-9
	case 3: // computation before the transfer completes
		a.CompStart = a.CommEnd() - float64(rng.Intn(3))*1e-9
	case 4:
		a.CommStart = -float64(rng.Intn(3)) * 1e-9
	case 5:
		a.CommStart = math.NaN()
	case 6:
		a.CompStart = math.Inf(1)
	case 7: // a task released exactly at another's transfer start
		b := c.Assignments[j]
		a.CompStart = b.CommStart - a.Task.Comp
	case 8: // several faults at once
		a.CommStart = c.Assignments[j].CommStart
		c.Assignments[j].CompStart = a.CompStart
	}
	return c
}

// TestValidateDifferentialRandom pins the sweep Validate and PeakMemory
// to the pairwise reference on random schedules, at capacities around
// the exact peak (where summation order could flip a verdict) and with
// injected faults.
func TestValidateDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(24)
		if trial%100 == 0 {
			n = 300
		}
		s := randomSchedule(rng, n)
		peak := referencePeakMemory(s)
		for _, c := range []float64{
			peak, peak * (1 - 1e-12), peak * (1 + 1e-12),
			math.Nextafter(peak, 0), math.Nextafter(math.Nextafter(peak, 0), 0),
			math.Nextafter(peak, math.Inf(1)),
			peak + 1e-9, peak + 2e-9, peak / 2, math.Inf(1),
		} {
			s.Capacity = c
			assertMatchesReference(t, "feasible layout", s)
		}
		s.Capacity = peak
		for k := 0; k < 4; k++ {
			assertMatchesReference(t, "mutated layout", mutate(rng, s))
		}
	}
}

// TestOverlapDifferentialRandom pins the merged Overlap to the pairwise
// reference, bit for bit, on every random schedule that passes Validate:
// integer-grid layouts with sub-tolerance jitter (so intervals of one
// resource may overlap by less than the tolerance), the same layouts at
// non-integer times and with the assignments shuffled out of time order
// (so the merge meets the pair terms in another order than the sum), and
// near-fault mutations that still validate.
func TestOverlapDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(24)
		if trial%100 == 0 {
			n = 300
		}
		s := randomSchedule(rng, n)
		s.Capacity = math.Inf(1)
		scaled := scaleTimes(s, 0.1)
		shuffled := &Schedule{Capacity: scaled.Capacity, Assignments: append([]Assignment(nil), scaled.Assignments...)}
		rng.Shuffle(n, func(i, j int) {
			shuffled.Assignments[i], shuffled.Assignments[j] = shuffled.Assignments[j], shuffled.Assignments[i]
		})
		for _, c := range []*Schedule{s, scaled, shuffled, mutate(rng, s), mutate(rng, s)} {
			if c.Validate() != nil {
				continue
			}
			checked++
			if got, want := c.Overlap(), referenceOverlap(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: Overlap %v, reference %v\n%s", trial, got, want, c)
			}
		}
	}
	if checked < 4500 {
		t.Fatalf("only %d schedules passed Validate", checked)
	}
}

// scaleTimes returns a copy of s with every duration and start time
// multiplied by f.
func scaleTimes(s *Schedule, f float64) *Schedule {
	c := &Schedule{Capacity: s.Capacity}
	for _, a := range s.Assignments {
		a.Task.Comm *= f
		a.Task.Comp *= f
		a.CommStart *= f
		a.CompStart *= f
		c.Append(a)
	}
	return c
}

// TestValidateDifferentialEdges covers the hand-picked edges by name.
func TestValidateDifferentialEdges(t *testing.T) {
	mk := func(capacity float64, as ...Assignment) *Schedule {
		return &Schedule{Capacity: capacity, Assignments: as}
	}
	task := func(name string, comm, comp, mem float64) Task {
		return Task{Name: name, Comm: comm, Comp: comp, Mem: mem}
	}
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"empty", mk(0)},
		{"nan capacity", mk(math.NaN(), Assignment{Task: task("a", 1, 1, 1), CompStart: 1})},
		{"release at a transfer start", mk(0.3,
			Assignment{Task: task("a", 1, 1, 0.1), CommStart: 0, CompStart: 1},
			Assignment{Task: task("b", 1, 1, 0.2), CommStart: 2, CompStart: 3})},
		{"release within tolerance after a transfer start", mk(0.1+0.2,
			Assignment{Task: task("a", 1, 1, 0.1), CommStart: 0, CompStart: 1},
			Assignment{Task: task("b", 1, 1, 0.2), CommStart: 2 - 0.5e-9, CompStart: 3})},
		{"zero-length intervals at one instant", mk(1,
			Assignment{Task: task("a", 0, 0, 0.5), CommStart: 1, CompStart: 1},
			Assignment{Task: task("b", 0, 0, 0.5), CommStart: 1, CompStart: 1},
			Assignment{Task: task("c", 1, 0, 0.5), CommStart: 1, CompStart: 2})},
		{"equal starts", mk(10,
			Assignment{Task: task("a", 1, 1, 1), CommStart: 0, CompStart: 1},
			Assignment{Task: task("b", 1, 1, 1), CommStart: 0, CompStart: 2})},
		{"link clash within tolerance", mk(10,
			Assignment{Task: task("a", 1, 1, 1), CommStart: 0, CompStart: 1},
			Assignment{Task: task("b", 1, 1, 1), CommStart: 1 - 1e-9, CompStart: 2})},
		{"capacity at exactly the peak", mk(0.1+0.2+0.3,
			Assignment{Task: task("a", 1, 5, 0.1), CommStart: 0, CompStart: 1},
			Assignment{Task: task("b", 1, 5, 0.2), CommStart: 1, CompStart: 6},
			Assignment{Task: task("c", 1, 1, 0.3), CommStart: 2, CompStart: 11})},
		{"several faults", mk(0.1,
			Assignment{Task: task("a", 1, 1, 1), CommStart: 0, CompStart: 0.5},
			Assignment{Task: task("b", 1, 1, 1), CommStart: 0.5, CompStart: 1.5},
			Assignment{Task: task("c", 1, 1, 1), CommStart: math.NaN(), CompStart: 1})},
	}
	for _, c := range cases {
		assertMatchesReference(t, c.name, c.s)
	}
}
