package heuristics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/paperdata"
	"transched/internal/testutil"
)

func TestRegistryHasAllFourteen(t *testing.T) {
	want := []string{"OS", "GG", "BP", "OOSIM", "IOCMS", "DOCPS", "IOCCS",
		"DOCCS", "LCMR", "SCMR", "MAMR", "OOLCMR", "OOSCMR", "OOMAMR"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestCategories(t *testing.T) {
	wantCat := map[string]Category{
		"OS": Baseline, "GG": Static, "BP": Static, "OOSIM": Static,
		"IOCMS": Static, "DOCPS": Static, "IOCCS": Static, "DOCCS": Static,
		"LCMR": Dynamic, "SCMR": Dynamic, "MAMR": Dynamic,
		"OOLCMR": Corrected, "OOSCMR": Corrected, "OOMAMR": Corrected,
	}
	for _, h := range All(10) {
		if h.Category != wantCat[h.Name] {
			t.Errorf("%s category = %v, want %v", h.Name, h.Category, wantCat[h.Name])
		}
		if h.Description == "" || h.Favorable == "" {
			t.Errorf("%s missing metadata", h.Name)
		}
	}
}

func TestCategoryString(t *testing.T) {
	for c, want := range map[Category]string{
		Baseline: "baseline", Static: "static", Dynamic: "dynamic",
		Corrected: "static+dynamic", Category(9): "Category(9)",
	} {
		if got := c.String(); got != want {
			t.Errorf("Category(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestByName(t *testing.T) {
	h, err := ByName("OOSIM", 6)
	if err != nil || h.Name != "OOSIM" {
		t.Fatalf("ByName(OOSIM) = %v, %v", h.Name, err)
	}
	if _, err := ByName("nope", 6); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

// TestPaperMakespans runs the registry heuristics on the paper's example
// tables and compares with the figure makespans.
func TestPaperMakespans(t *testing.T) {
	check := func(in *core.Instance, wants map[string]float64) {
		t.Helper()
		for name, want := range wants {
			if name == "OMIM" {
				if got := flowshop.OMIM(in.Tasks); math.Abs(got-want) > 1e-9 {
					t.Errorf("OMIM = %g, want %g", got, want)
				}
				continue
			}
			h, err := ByName(name, in.Capacity)
			if err != nil {
				t.Fatal(err)
			}
			s, err := h.Run(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := s.Makespan(); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s makespan = %g, want %g\n%s", name, got, want, s)
			}
		}
	}
	check(paperdata.Table3(), paperdata.Table3Makespans)
	check(paperdata.Table4(), paperdata.Table4Makespans)
	check(paperdata.Table5(), paperdata.Table5Makespans)
}

func TestBinPackingOrder(t *testing.T) {
	tasks := []core.Task{
		core.NewTask("A", 4, 1), // bin 0 (free 2)
		core.NewTask("B", 5, 1), // bin 1 (free 1)
		core.NewTask("C", 2, 1), // bin 0 (free 0)
		core.NewTask("D", 1, 1), // bin 1 (free 0)
		core.NewTask("E", 6, 1), // bin 2
	}
	order := BinPackingOrder(tasks, 6)
	want := []int{0, 2, 1, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("BinPackingOrder = %v, want %v", order, want)
		}
	}
}

// binPackingReference is the First-Fit order as BP first computed it,
// one item slice per bin: the specification the counting-pass
// BinPackingOrder must reproduce.
func binPackingReference(tasks []core.Task, capacity float64) []int {
	type bin struct {
		free  float64
		items []int
	}
	var bins []bin
	for i, t := range tasks {
		placed := false
		for b := range bins {
			if t.Mem <= bins[b].free+1e-9 {
				bins[b].free -= t.Mem
				bins[b].items = append(bins[b].items, i)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, bin{free: capacity - t.Mem, items: []int{i}})
		}
	}
	order := make([]int, 0, len(tasks))
	for _, b := range bins {
		order = append(order, b.items...)
	}
	return order
}

// TestBinPackingOrderMatchesReferenceOnPaperTraces: on paper-seed HF and
// CCSD traces at the nine paper capacities, BP's order is the
// reference's, and a run makes a fixed handful of allocations rather
// than one per bin.
func TestBinPackingOrderMatchesReferenceOnPaperTraces(t *testing.T) {
	multipliers := []float64{1, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875, 2}
	for _, app := range []string{"HF", "CCSD"} {
		traces, err := chem.Generate(app, cluster.Cascade(), chem.Config{Seed: 20190415, Processes: 3})
		if err != nil {
			t.Fatal(err)
		}
		for p, tr := range traces {
			mc := tr.MinCapacity()
			for _, m := range multipliers {
				got := BinPackingOrder(tr.Tasks, mc*m)
				if want := binPackingReference(tr.Tasks, mc*m); !slices.Equal(got, want) {
					t.Fatalf("%s trace %d at %g mc: order differs from the reference", app, p, m)
				}
				if p > 0 {
					continue
				}
				allocs := testing.AllocsPerRun(5, func() { BinPackingOrder(tr.Tasks, mc*m) })
				if allocs > 16 {
					t.Errorf("%s trace 0 at %g mc: %g allocations per run, want <= 16", app, m, allocs)
				}
			}
		}
	}
}

func TestBinPackingOrderEmpty(t *testing.T) {
	if got := BinPackingOrder(nil, 5); len(got) != 0 {
		t.Errorf("empty BP order = %v", got)
	}
}

// TestAllHeuristicsFeasibleAndAboveOMIM is the registry-level invariant
// sweep: every heuristic on random instances and capacities in [mc, 2mc]
// yields a valid schedule with ratio-to-optimal >= 1.
func TestAllHeuristicsFeasibleAndAboveOMIM(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 120; trial++ {
		in := testutil.RandomInstance(rng, 1+rng.Intn(30), 10)
		omim := flowshop.OMIM(in.Tasks)
		for _, h := range All(in.Capacity) {
			s, err := h.Run(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, h.Name, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, h.Name, err)
			}
			if omim > 0 && s.Makespan()/omim < 1-1e-9 {
				t.Fatalf("trial %d %s: ratio %g < 1", trial, h.Name, s.Makespan()/omim)
			}
		}
	}
}

// TestOOSIMOptimalWhenUnconstrained: with capacity above the Johnson
// schedule's peak memory, OOSIM achieves exactly OMIM (Table 6 row 1).
func TestOOSIMOptimalWhenUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 150; trial++ {
		tasks := testutil.RandomTasks(rng, 1+rng.Intn(20), 10)
		js := flowshop.ScheduleOrderUnlimited(tasks, flowshop.JohnsonOrder(tasks))
		in := core.NewInstance(tasks, js.PeakMemory()+1e-6)
		h, _ := ByName("OOSIM", in.Capacity)
		s, err := h.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.Makespan()-js.Makespan()) > 1e-6 {
			t.Fatalf("trial %d: OOSIM %g != OMIM %g at capacity %g",
				trial, s.Makespan(), js.Makespan(), in.Capacity)
		}
	}
}

// TestIOCMSOptimalComputeIntensive: Table 6 — IOCMS is optimal when memory
// is unrestricted and all tasks are compute intensive (it then coincides
// with Johnson's order).
func TestIOCMSOptimalComputeIntensive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		tasks := make([]core.Task, n)
		for i := range tasks {
			comm := rng.Float64() * 5
			tasks[i] = core.NewTask(string(rune('A'+i)), comm, comm+rng.Float64()*5)
		}
		in := core.NewInstance(tasks, 1e12)
		h, _ := ByName("IOCMS", in.Capacity)
		s, err := h.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if omim := flowshop.OMIM(tasks); math.Abs(s.Makespan()-omim) > 1e-9 {
			t.Fatalf("trial %d: IOCMS %g != OMIM %g on compute-intensive workload",
				trial, s.Makespan(), omim)
		}
	}
}

// TestDOCPSOptimalCommIntensive: Table 6 — DOCPS is optimal when memory is
// unrestricted and all tasks are communication intensive.
func TestDOCPSOptimalCommIntensive(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		tasks := make([]core.Task, n)
		for i := range tasks {
			comp := rng.Float64() * 5
			tasks[i] = core.NewTask(string(rune('A'+i)), comp+0.001+rng.Float64()*5, comp)
		}
		in := core.NewInstance(tasks, 1e12)
		h, _ := ByName("DOCPS", in.Capacity)
		s, err := h.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if omim := flowshop.OMIM(tasks); math.Abs(s.Makespan()-omim) > 1e-9 {
			t.Fatalf("trial %d: DOCPS %g != OMIM %g on communication-intensive workload",
				trial, s.Makespan(), omim)
		}
	}
}

func TestRunBatchesDelegates(t *testing.T) {
	in := paperdata.Table4()
	h, _ := ByName("LCMR", in.Capacity)
	s, err := h.RunBatches(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Assignments) != in.N() {
		t.Errorf("batched run lost tasks")
	}
}
