package core_test

import (
	"math"
	"testing"

	"transched/internal/chem"
	"transched/internal/cluster"
	"transched/internal/core"
	"transched/internal/heuristics"
)

// TestValidateDifferentialChemTraces pins the sweep Validate, PeakMemory
// and Overlap to the pairwise reference on the schedules the paper's
// evaluation produces: every heuristic on ten paper-seed HF and CCSD
// traces each (300–800 tasks, non-integer byte memories). The capacity
// rotates through 1, 1.5 and 2 mc across traces and heuristics, so every
// heuristic meets every capacity while the O(n²) reference stays within
// about two seconds; each schedule is then re-checked at capacity
// peak·(1−1e-12), just below its own peak, where a summation-order slip
// would flip the verdict.
func TestValidateDifferentialChemTraces(t *testing.T) {
	traces := 10
	if testing.Short() {
		traces = 4
	}
	factors := []float64{1, 1.5, 2}
	for _, app := range []string{"HF", "CCSD"} {
		trs, err := chem.Generate(app, cluster.Cascade(), chem.Config{Seed: 20190415, Processes: traces})
		if err != nil {
			t.Fatal(err)
		}
		for ti, tr := range trs {
			for hi, name := range heuristics.Names() {
				f := factors[(ti+hi)%len(factors)]
				in := tr.Instance(f * tr.MinCapacity())
				h, err := heuristics.ByName(name, in.Capacity)
				if err != nil {
					t.Fatal(err)
				}
				s, err := h.Run(in)
				if err != nil {
					t.Fatalf("%s trace %d %s at %g mc: %v", app, ti, name, f, err)
				}
				if got, want := s.Overlap(), core.ReferenceOverlap(s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s trace %d %s at %g mc: Overlap %v, reference %v", app, ti, name, f, got, want)
				}
				peak := s.PeakMemory()
				if want := core.ReferencePeakMemory(s); math.Float64bits(peak) != math.Float64bits(want) {
					t.Fatalf("%s trace %d %s at %g mc: PeakMemory %v, reference %v", app, ti, name, f, peak, want)
				}
				for _, c := range []float64{in.Capacity, peak * (1 - 1e-12)} {
					s.Capacity = c
					got, want := s.Validate(), core.ReferenceValidate(s)
					if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
						t.Fatalf("%s trace %d %s at %g mc, capacity %v: Validate %v, reference %v",
							app, ti, name, f, c, got, want)
					}
				}
			}
		}
	}
}
