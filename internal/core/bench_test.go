package core_test

import (
	"fmt"
	"testing"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/heuristics"
)

// benchSchedule returns the OOLCMR schedule of one paper-seed HF trace
// with exactly n tasks at 1.5 mc — a feasible, memory-bound schedule of
// the size the paper's traces have (300–800 tasks).
func benchSchedule(b *testing.B, n int) *core.Schedule {
	b.Helper()
	trs, err := chem.Generate("HF", cluster.Cascade(), chem.Config{
		Seed: 20190415, Processes: 1, MinTasks: n, MaxTasks: n,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := trs[0].Instance(1.5 * trs[0].MinCapacity())
	h, err := heuristics.ByName("OOLCMR", in.Capacity)
	if err != nil {
		b.Fatal(err)
	}
	s, err := h.Run(in)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkScheduleValidate times the event-sweep Validate against the
// pairwise reference it replaced.
func BenchmarkScheduleValidate(b *testing.B) {
	for _, n := range []int{300, 800} {
		s := benchSchedule(b, n)
		for _, impl := range []struct {
			name string
			fn   func(*core.Schedule) error
		}{{"sweep", (*core.Schedule).Validate}, {"reference", core.ReferenceValidate}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := impl.fn(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// peakSink keeps the compiler from dropping the measured PeakMemory call.
var peakSink float64

// BenchmarkPeakMemory times the event-sweep PeakMemory against the
// O(n²) reference it replaced.
func BenchmarkPeakMemory(b *testing.B) {
	for _, n := range []int{300, 800} {
		s := benchSchedule(b, n)
		for _, impl := range []struct {
			name string
			fn   func(*core.Schedule) float64
		}{{"sweep", (*core.Schedule).PeakMemory}, {"reference", core.ReferencePeakMemory}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					peakSink = impl.fn(s)
				}
			})
		}
	}
}
