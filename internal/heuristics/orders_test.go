package heuristics

import (
	"math/rand"
	"sort"
	"testing"

	"transched/internal/core"
	"transched/internal/testutil"
)

// orderOf runs the named heuristic's order function on the tasks.
func orderOf(t *testing.T, name string, tasks []core.Task, capacity float64) []int {
	t.Helper()
	h, err := ByName(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case h.Policy.Order != nil:
		return h.Policy.Order(tasks)
	case h.Policy.CapacityOrder != nil:
		return h.Policy.CapacityOrder(tasks, capacity)
	}
	t.Fatalf("%s has no order function", name)
	return nil
}

func sortedByOrder(tasks []core.Task, order []int, key func(core.Task) float64) bool {
	for i := 1; i < len(order); i++ {
		if key(tasks[order[i]]) < key(tasks[order[i-1]])-1e-12 {
			return false
		}
	}
	return true
}

func TestStaticOrdersAreSortedByTheirKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 50; trial++ {
		tasks := testutil.RandomTasks(rng, 1+rng.Intn(30), 10)
		if !sortedByOrder(tasks, orderOf(t, "IOCMS", tasks, 1),
			func(x core.Task) float64 { return x.Comm }) {
			t.Fatal("IOCMS not sorted by increasing communication")
		}
		if !sortedByOrder(tasks, orderOf(t, "DOCPS", tasks, 1),
			func(x core.Task) float64 { return -x.Comp }) {
			t.Fatal("DOCPS not sorted by decreasing computation")
		}
		if !sortedByOrder(tasks, orderOf(t, "IOCCS", tasks, 1),
			func(x core.Task) float64 { return x.Comm + x.Comp }) {
			t.Fatal("IOCCS not sorted by increasing comm+comp")
		}
		if !sortedByOrder(tasks, orderOf(t, "DOCCS", tasks, 1),
			func(x core.Task) float64 { return -(x.Comm + x.Comp) }) {
			t.Fatal("DOCCS not sorted by decreasing comm+comp")
		}
	}
}

func TestOSIsSubmissionOrder(t *testing.T) {
	tasks := testutil.RandomTasks(rand.New(rand.NewSource(1)), 20, 10)
	order := orderOf(t, "OS", tasks, 1)
	for i, v := range order {
		if v != i {
			t.Fatalf("OS order %v is not the identity", order)
		}
	}
}

func TestStableTieBreaking(t *testing.T) {
	// Identical tasks must stay in submission order for every sorted
	// heuristic (determinism).
	tasks := []core.Task{
		core.NewTask("A", 2, 2), core.NewTask("B", 2, 2), core.NewTask("C", 2, 2),
	}
	for _, name := range []string{"IOCMS", "DOCPS", "IOCCS", "DOCCS", "OOSIM"} {
		order := orderOf(t, name, tasks, 10)
		for i, v := range order {
			if v != i {
				t.Errorf("%s reorders identical tasks: %v", name, order)
				break
			}
		}
	}
}

func TestBinPackingRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	for trial := 0; trial < 100; trial++ {
		tasks := testutil.RandomTasks(rng, 1+rng.Intn(40), 10)
		capacity := 0.0
		for _, task := range tasks {
			if task.Mem > capacity {
				capacity = task.Mem
			}
		}
		capacity *= 1 + rng.Float64()*2
		order := BinPackingOrder(tasks, capacity)
		// Reconstruct the bins from the order: greedy grouping must never
		// exceed capacity when replayed with First-Fit semantics.
		if len(order) != len(tasks) {
			t.Fatalf("trial %d: order length %d", trial, len(order))
		}
		seen := make([]bool, len(tasks))
		for _, i := range order {
			if seen[i] {
				t.Fatalf("trial %d: duplicate %d", trial, i)
			}
			seen[i] = true
		}
	}
}

func TestBinPackingGroupsFit(t *testing.T) {
	tasks := []core.Task{
		core.NewTask("A", 3, 1),
		core.NewTask("B", 3, 1),
		core.NewTask("C", 3, 1),
		core.NewTask("D", 1, 1),
	}
	// Capacity 4: bins {A,D}, {B}, {C} under First-Fit.
	order := BinPackingOrder(tasks, 4)
	want := []int{0, 3, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestGGOrderFeedsStaticExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 30; trial++ {
		in := testutil.RandomInstance(rng, 1+rng.Intn(20), 10)
		h, err := ByName("GG", in.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		s, err := h.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOrdersArePermutations: every static order function returns a
// permutation on arbitrary inputs.
func TestOrdersArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	tasks := testutil.RandomTasks(rng, 64, 10)
	for _, h := range All(20) {
		var order []int
		switch {
		case h.Policy.Order != nil:
			order = h.Policy.Order(tasks)
		case h.Policy.CapacityOrder != nil:
			order = h.Policy.CapacityOrder(tasks, 20)
		default:
			continue
		}
		cp := append([]int(nil), order...)
		sort.Ints(cp)
		for i, v := range cp {
			if v != i {
				t.Fatalf("%s: order is not a permutation", h.Name)
			}
		}
	}
}
