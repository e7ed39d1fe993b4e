// Package heuristics implements every data-transfer ordering strategy
// evaluated in the paper (§4): the static orders, the dynamic selection
// rules, the static orders with dynamic corrections, the two strategies
// from prior work (Gilmore–Gomory and bin-packing First-Fit), and the
// order-of-submission baseline. Each heuristic is exposed as a
// simulate.Policy plus metadata, keyed by the paper's acronym.
package heuristics

import (
	"fmt"
	"sort"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/simulate"
)

// Category classifies heuristics the way the paper's figures do.
type Category int

const (
	// Baseline is the order-of-submission strategy (OS).
	Baseline Category = iota
	// Static heuristics precompute the full order (paper §4.1, §4.4).
	Static
	// Dynamic heuristics choose the next task at run time (paper §4.2).
	Dynamic
	// Corrected heuristics follow a static order with dynamic corrections
	// (paper §4.3).
	Corrected
)

func (c Category) String() string {
	switch c {
	case Baseline:
		return "baseline"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Corrected:
		return "static+dynamic"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Heuristic bundles a policy with its paper metadata.
type Heuristic struct {
	// Name is the paper's acronym (OS, OOSIM, IOCMS, ..., GG, BP).
	Name string
	// Description expands the acronym.
	Description string
	// Category is the paper's grouping.
	Category Category
	// Policy drives the simulate executors.
	Policy simulate.Policy
	// Favorable summarises the heuristic's favorable situation (Table 6).
	Favorable string
}

// Run schedules the instance with this heuristic.
func (h Heuristic) Run(in *core.Instance) (*core.Schedule, error) {
	return simulate.Run(in, h.Policy)
}

// RunBatches schedules the instance in submission batches of the given
// size with this heuristic (paper §6.3).
func (h Heuristic) RunBatches(in *core.Instance, batchSize int) (*core.Schedule, error) {
	return simulate.RunBatches(in, batchSize, h.Policy)
}

// sortOrder returns the permutation of task indices sorted by key
// (ascending), breaking ties by submission index. Keys are evaluated
// once per task, not once per comparison: the comparator sees the same
// float values either way, so the permutation is identical.
func sortOrder(tasks []core.Task, key func(core.Task) float64) []int {
	keys := make([]float64, len(tasks))
	order := make([]int, len(tasks))
	for i := range order {
		keys[i] = key(tasks[i])
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return keys[order[a]] < keys[order[b]]
	})
	return order
}

func identityOrder(tasks []core.Task) []int {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	return order
}

// BinPackingOrder implements the BP heuristic (paper §4.4): tasks are
// assigned to memory bins of the given capacity by First-Fit in submission
// order; the sequence is all tasks of bin 0, then bin 1, and so on. Each
// task's bin is recorded in one slice and the sequence is emitted by a
// stable counting pass over the bins, so a run allocates a fixed handful
// of slices however many bins it opens.
func BinPackingOrder(tasks []core.Task, capacity float64) []int {
	bin := make([]int, len(tasks))
	free := make([]float64, 0, len(tasks)) // at most one bin per task
	for i, t := range tasks {
		// Negated rather than '>' so that a NaN requirement fits no open
		// bin and opens its own, as First-Fit here always has.
		b := 0
		for b < len(free) && !(t.Mem <= free[b]+1e-9) {
			b++
		}
		if b == len(free) {
			free = append(free, capacity)
		}
		free[b] -= t.Mem
		bin[i] = b
	}
	// start[b] is the position of bin b's next task in the sequence.
	start := make([]int, len(free)+1)
	for _, b := range bin {
		start[b+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	order := make([]int, len(tasks))
	for i, b := range bin {
		order[start[b]] = i
		start[b]++
	}
	return order
}

// All returns every heuristic evaluated in the paper, in the order the
// figures list them: OS, GG, BP, OOSIM, IOCMS, DOCPS, IOCCS, DOCCS, LCMR,
// SCMR, MAMR, OOLCMR, OOSCMR, OOMAMR. Every policy takes the memory
// capacity from the run it drives: BP's bins have the size of the run's
// capacity (a capacity-dependent order), and every other order is
// capacity-free. The registry is therefore the same at every capacity;
// the parameter only keeps existing callers compiling.
func All(capacity float64) []Heuristic {
	johnson := func(tasks []core.Task) []int { return flowshop.JohnsonOrder(tasks) }
	return []Heuristic{
		{
			Name:        "OS",
			Description: "order of submission",
			Category:    Baseline,
			Policy:      simulate.Policy{Order: identityOrder},
			Favorable:   "none: the arbitrary submission order is the baseline",
		},
		{
			Name:        "GG",
			Description: "Gilmore-Gomory minimal-cost no-wait sequence",
			Category:    Static,
			Policy:      simulate.Policy{Order: flowshop.GilmoreGomoryOrder},
			Favorable:   "no-wait execution; degrades when extra memory allows overlap its sequence ignores",
		},
		{
			Name:        "BP",
			Description: "bin packing (First-Fit by memory)",
			Category:    Static,
			Policy:      simulate.Policy{CapacityOrder: BinPackingOrder},
			Favorable:   "tight memory: groups of tasks that fit together execute together",
		},
		{
			Name:        "OOSIM",
			Description: "order of optimal strategy infinite memory (Johnson)",
			Category:    Static,
			Policy:      simulate.Policy{Order: johnson},
			Favorable:   "memory capacity is not a restriction (optimal)",
		},
		{
			Name:        "IOCMS",
			Description: "increasing order of communication",
			Category:    Static,
			Policy: simulate.Policy{Order: func(tasks []core.Task) []int {
				return sortOrder(tasks, func(t core.Task) float64 { return t.Comm })
			}},
			Favorable: "no memory restriction and compute-intensive tasks (optimal)",
		},
		{
			Name:        "DOCPS",
			Description: "decreasing order of computation",
			Category:    Static,
			Policy: simulate.Policy{Order: func(tasks []core.Task) []int {
				return sortOrder(tasks, func(t core.Task) float64 { return -t.Comp })
			}},
			Favorable: "no memory restriction and communication-intensive tasks (optimal)",
		},
		{
			Name:        "IOCCS",
			Description: "increasing order of communication plus computation",
			Category:    Static,
			Policy: simulate.Policy{Order: func(tasks []core.Task) []int {
				return sortOrder(tasks, func(t core.Task) float64 { return t.Comm + t.Comp })
			}},
			Favorable: "moderate memory and most tasks highly compute intensive",
		},
		{
			Name:        "DOCCS",
			Description: "decreasing order of communication plus computation",
			Category:    Static,
			Policy: simulate.Policy{Order: func(tasks []core.Task) []int {
				return sortOrder(tasks, func(t core.Task) float64 { return -(t.Comm + t.Comp) })
			}},
			Favorable: "moderate memory and most tasks highly communication intensive",
		},
		{
			Name:        "LCMR",
			Description: "largest communication task respecting memory",
			Category:    Dynamic,
			Policy:      simulate.Policy{Crit: simulate.LargestComm},
			Favorable:   "limited memory and compute-intensive tasks with large communication times",
		},
		{
			Name:        "SCMR",
			Description: "smallest communication task respecting memory",
			Category:    Dynamic,
			Policy:      simulate.Policy{Crit: simulate.SmallestComm},
			Favorable:   "limited memory and compute-intensive tasks with small communication times",
		},
		{
			Name:        "MAMR",
			Description: "maximum accelerated task respecting memory",
			Category:    Dynamic,
			Policy:      simulate.Policy{Crit: simulate.MaxAccelerated},
			Favorable:   "limited memory with a significant percentage of tasks of both types",
		},
		{
			Name:        "OOLCMR",
			Description: "Johnson order, corrections pick largest communication",
			Category:    Corrected,
			Policy:      simulate.Policy{Order: johnson, Crit: simulate.LargestComm},
			Favorable:   "moderate memory and many communication-intensive tasks",
		},
		{
			Name:        "OOSCMR",
			Description: "Johnson order, corrections pick smallest communication",
			Category:    Corrected,
			Policy:      simulate.Policy{Order: johnson, Crit: simulate.SmallestComm},
			Favorable:   "moderate memory and many compute-intensive tasks",
		},
		{
			Name:        "OOMAMR",
			Description: "Johnson order, corrections pick maximum accelerated",
			Category:    Corrected,
			Policy:      simulate.Policy{Order: johnson, Crit: simulate.MaxAccelerated},
			Favorable:   "moderate memory with highly compute- and communication-intensive tasks",
		},
	}
}

// ByName returns the named heuristic from All(capacity).
func ByName(name string, capacity float64) (Heuristic, error) {
	for _, h := range All(capacity) {
		if h.Name == name {
			return h, nil
		}
	}
	return Heuristic{}, fmt.Errorf("heuristics: unknown heuristic %q", name)
}

// Names returns the acronyms of all heuristics in figure order.
func Names() []string {
	names := make([]string, 0, 14)
	for _, h := range All(1) {
		names = append(names, h.Name)
	}
	return names
}
