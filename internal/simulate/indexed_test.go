package simulate

// Tests of the indexed pick (selector.pickIndexed): differential runs
// against the reference kernel on instances built to sit on eps
// boundaries, one test per guard that fails when that guard is removed,
// and a fuzz target over the same grid.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"transched/internal/core"
)

// byComp ranks by computation time: a criterion whose keys are free of
// the communication times, so key and idle ties can be set apart.
func byComp(t core.Task) float64 { return t.Comp }

// epsGrid holds the durations the eps-boundary instances draw from:
// exact duplicates, gaps of eps and of eps plus or minus one ulp, and
// values just above zero, so induced idle times clamp at or just above
// zero. The last four are the rounding pairs of the guard tests.
var epsGrid = func() []float64 {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, 0) }
	return []float64{
		0, eps / 2, eps, up(eps), down(eps), 2 * eps,
		1, 1 + eps, up(1 + eps), down(1 + eps), 1 + 2*eps,
		2, 2 - eps, 2 + eps, 3,
		pinBelowX, pinBelowY, pinAboveX, pinAboveY,
	}
}()

// Rounding pairs of least idle X and next idle Y. Of the two forms of
// guard (b), only I2 > I*+eps rejects pinAbove and only I* < I2-eps
// rejects pinBelow. They are variables so that the comparisons round as
// the kernel's do; constant arithmetic would be exact.
var (
	pinAboveX = 3.6072245569410103e-09
	pinAboveY = 4.607224556941011e-09
	pinBelowX = 1.9402815092815346e-09
	pinBelowY = 2.940281509281535e-09
)

// gridTasks draws n tasks from epsGrid. With coMono the memory
// requirement is a non-decreasing function of the communication time
// (the communication time itself, or a step of it that ties whole
// groups); otherwise it is drawn independently, which sends selection
// down the fallback paths.
func gridTasks(rng *rand.Rand, n int, coMono bool) []core.Task {
	tasks := make([]core.Task, n)
	for i := range tasks {
		comm := epsGrid[rng.Intn(len(epsGrid))]
		comp := epsGrid[rng.Intn(len(epsGrid))]
		mem := comm
		switch {
		case !coMono:
			mem = epsGrid[rng.Intn(len(epsGrid))]
		case rng.Intn(2) == 0:
			mem = math.Floor(comm) + 1
		}
		tasks[i] = core.Task{Name: fmt.Sprintf("T%d", i), Comm: comm, Comp: comp, Mem: mem}
	}
	return tasks
}

// gridPolicies is every criterion, with and without the idle filter, in
// pure dynamic and corrected mode.
func gridPolicies() []struct {
	name string
	p    Policy
} {
	var ps []struct {
		name string
		p    Policy
	}
	for _, c := range []struct {
		name string
		crit Criterion
	}{{"largestComm", LargestComm}, {"smallestComm", SmallestComm}, {"maxAccelerated", MaxAccelerated}, {"byComp", byComp}} {
		for _, noIdle := range []bool{false, true} {
			for _, order := range []func([]core.Task) []int{nil, shuffleOrder} {
				name := c.name
				if order != nil {
					name = "corrected/" + name
				}
				if noIdle {
					name += "/noIdle"
				}
				ps = append(ps, struct {
					name string
					p    Policy
				}{name, Policy{Order: order, Crit: c.crit, NoIdleFilter: noIdle}})
			}
		}
	}
	return ps
}

// diffGrid runs one instance through both kernels, whole and in batches,
// and fails on the first difference. It returns the optimized kernel's
// stats summed over the runs.
func diffGrid(t *testing.T, in *core.Instance, label string) ExecStats {
	t.Helper()
	var sum ExecStats
	for _, batch := range []int{0, 5} {
		for _, pc := range gridPolicies() {
			name := fmt.Sprintf("%s/batch=%d/%s", label, batch, pc.name)
			ref, refStats, refErr := refRunBatches(in, batch, pc.p)
			opt, optStats, optErr := optRunBatches(in, batch, pc.p)
			if (refErr == nil) != (optErr == nil) || refErr != nil && refErr.Error() != optErr.Error() {
				t.Fatalf("%s: error mismatch: ref %v opt %v", name, refErr, optErr)
			}
			if refErr != nil {
				continue
			}
			t.Run(name, func(t *testing.T) {
				assertSameSchedule(t, ref, opt)
				assertSameStats(t, refStats, optStats)
			})
			sum.PickIndexed += optStats.PickIndexed
			sum.PickFast += optStats.PickFast
			sum.PickFull += optStats.PickFull
		}
	}
	return sum
}

// gridCapacity returns the instance's capacity for selector sel: just
// the largest requirement, one and a half times it, or room for all.
func gridCapacity(tasks []core.Task, sel int) float64 {
	mc, sum := 0.0, 0.0
	for _, t := range tasks {
		mc = max(mc, t.Mem)
		sum += t.Mem
	}
	switch sel % 3 {
	case 0:
		return mc
	case 1:
		return mc * 1.5
	}
	return sum
}

// TestDifferentialEpsGrid: on eps-grid instances the optimized kernel is
// byte-identical to the reference, and both the indexed pick and its
// fallback run.
func TestDifferentialEpsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var coMono, other ExecStats
	for k := 0; k < 24; k++ {
		for _, mono := range []bool{true, false} {
			tasks := gridTasks(rng, 3+rng.Intn(14), mono)
			in := core.NewInstance(tasks, gridCapacity(tasks, k))
			st := diffGrid(t, in, fmt.Sprintf("instance %d/coMono=%v", k, mono))
			if mono {
				coMono.PickIndexed += st.PickIndexed
				coMono.PickFull += st.PickFull
			} else {
				other.PickFast += st.PickFast
				other.PickFull += st.PickFull
			}
		}
	}
	if coMono.PickIndexed == 0 || coMono.PickFull == 0 {
		t.Errorf("co-monotone instances: %d indexed picks, %d fallback scans; want both", coMono.PickIndexed, coMono.PickFull)
	}
	if other.PickFast == 0 || other.PickFull == 0 {
		t.Errorf("other instances: %d fast paths, %d full scans; want both", other.PickFast, other.PickFull)
	}
}

// assertFallback runs tasks with the policy on both kernels, requires
// identical schedules whose first placement is want, and requires that
// the first pick fell back to the scan.
func assertFallback(t *testing.T, tasks []core.Task, p Policy, want string) {
	t.Helper()
	in := core.NewInstance(tasks, 100)
	ref, _, err := refRunBatches(in, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	opt, st, err := optRunBatches(in, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, ref, opt)
	if got := opt.Assignments[0].Task.Name; got != want {
		t.Fatalf("picked %q first, want %q", got, want)
	}
	if st.PickFull != 1 {
		t.Fatalf("stats %+v: want exactly one fallback scan", st)
	}
}

// TestIndexedGuardKeyGap pins guard (a). A and B induce the same idle,
// and B's key beats A's by less than eps: the scan keeps A, scanned
// first, where the clean argmin would take B.
func TestIndexedGuardKeyGap(t *testing.T) {
	assertFallback(t, []core.Task{
		core.NewTask("A", 1, 2),
		core.NewTask("B", 1, 2+5e-10),
	}, Policy{Crit: byComp}, "A")
}

// TestIndexedGuardIdleAbove pins the form I2 > I*+eps of guard (b): A
// has the least idle, B's idle is above it by exactly enough that
// I* < I2-eps holds while I2 > I*+eps does not, and B's key is far
// larger. B, scanned after A, takes the slot within the idle band.
func TestIndexedGuardIdleAbove(t *testing.T) {
	if !(pinAboveX < pinAboveY-eps) || pinAboveY > pinAboveX+eps {
		t.Fatal("the rounding pair no longer separates the two forms")
	}
	assertFallback(t, []core.Task{
		core.NewTask("A", pinAboveX, 0),
		core.NewTask("B", pinAboveY, 1),
	}, Policy{Crit: byComp}, "B")
}

// TestIndexedGuardIdleBelow pins the form I* < I2-eps of guard (b): A
// has the least idle, I2 > I*+eps holds while I* < I2-eps does not, and
// B, scanned first with the larger key, keeps the slot against A.
func TestIndexedGuardIdleBelow(t *testing.T) {
	if !(pinBelowY > pinBelowX+eps) || pinBelowX < pinBelowY-eps {
		t.Fatal("the rounding pair no longer separates the two forms")
	}
	assertFallback(t, []core.Task{
		core.NewTask("B", pinBelowY, 0),
		core.NewTask("A", pinBelowX, 0),
	}, Policy{Crit: LargestComm}, "B")
}

// FuzzSelectIndexed compares the optimized kernel with the reference on
// small instances drawn from epsGrid. Each task takes three bytes:
// communication time, computation time and memory requirement (when
// flags asks for independent memory; otherwise memory is the
// communication time). flags also picks the criterion, the idle filter,
// corrected mode, the batch size and the capacity.
func FuzzSelectIndexed(f *testing.F) {
	idx := func(x float64) byte {
		for i, v := range epsGrid {
			if v == x {
				return byte(i)
			}
		}
		panic("value not on the grid")
	}
	f.Add([]byte{idx(1), idx(1), 0, idx(1), idx(1 + eps), 0}, uint16(3<<0|2<<6))                             // equal idle, keys within eps
	f.Add([]byte{idx(pinAboveX), idx(0), 0, idx(pinAboveY), idx(1), 0}, uint16(3<<0|2<<6))                   // guard (b), I2 > I*+eps
	f.Add([]byte{idx(pinBelowY), idx(0), 0, idx(pinBelowX), idx(0), 0}, uint16(0<<0|2<<6))                   // guard (b), I* < I2-eps
	f.Add([]byte{idx(eps), idx(1), 0, idx(0), idx(1 + eps), 0, idx(2 * eps), idx(2), 0}, uint16(2<<6))       // clamped idle
	f.Add([]byte{1, 7, 3, 9, 2, 11, 4, 4, 4, 13, 0, 6, 6, 12, 1, 8, 8, 8}, uint16(1<<2|1<<3|1<<4|1<<5|1<<6)) // independent memory
	f.Fuzz(func(t *testing.T, data []byte, flags uint16) {
		n := min(len(data)/3, 12)
		if n == 0 {
			return
		}
		tasks := make([]core.Task, n)
		for i := range tasks {
			comm := epsGrid[int(data[3*i])%len(epsGrid)]
			mem := comm
			if flags&(1<<4) != 0 {
				mem = epsGrid[int(data[3*i+2])%len(epsGrid)]
			}
			tasks[i] = core.Task{Name: fmt.Sprintf("T%d", i), Comm: comm,
				Comp: epsGrid[int(data[3*i+1])%len(epsGrid)], Mem: mem}
		}
		crits := []Criterion{LargestComm, SmallestComm, MaxAccelerated, byComp}
		p := Policy{Crit: crits[flags&3], NoIdleFilter: flags&(1<<2) != 0}
		if flags&(1<<3) != 0 {
			p.Order = shuffleOrder
		}
		batch := 0
		if flags&(1<<5) != 0 {
			batch = 3
		}
		in := core.NewInstance(tasks, gridCapacity(tasks, int(flags>>6)))
		ref, _, refErr := refRunBatches(in, batch, p)
		opt, _, optErr := optRunBatches(in, batch, p)
		if (refErr == nil) != (optErr == nil) {
			t.Fatalf("error mismatch: ref %v opt %v", refErr, optErr)
		}
		if refErr == nil {
			assertSameSchedule(t, ref, opt)
		}
	})
}
