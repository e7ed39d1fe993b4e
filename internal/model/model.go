// Package model learns task-duration estimators from feature-annotated
// traces. The paper assumes exact CM_i/CP_i, derived offline from a
// linear performance model of the Cascade machine (§5: transfer bytes
// over link bandwidth, flops over flop rate); production systems never
// have exact durations — they have estimates. This package closes that
// gap in pure Go: per-task feature vectors (transfer bytes, memory
// footprint, contraction flops, memory-bound traffic) ride in the trace
// format's `#!` annotations, a closed-form ridge estimator fits CM and
// CP separately, k-fold cross-validation reports MAPE/R², and a
// calibrated-noise perturbation engine drives the robustness sweep
// (internal/experiments) that asks which of the 14 heuristics degrade
// gracefully when durations are mispredicted. Ridge is the one
// estimator: the durations come from the paper's linear machine model,
// so a linear fit is exact by construction and carries from one
// application to the other (internal/experiments tests this).
//
// Everything here is deterministic: seeded *rand.Rand only, no wall
// clock (the package is listed in lint.DetclockPackages), fits are
// closed-form normal equations solved by Cholesky in a fixed order, and
// golden FNV-64a digests over the fitted coefficients pin
// bit-reproducibility across runs and -shuffle orders.
package model

import (
	"math"

	"transched/internal/trace"
)

// Features is the canonical per-task feature vector. The columns mirror
// what the chem generators know at task-creation time — the inputs of
// the machine cost model, not its outputs:
//
//   - Bytes: transfer volume over the serial link (drives CM);
//   - Mem: the task's memory footprint while resident;
//   - Flops: tensor-contraction flop count (drives compute-bound CP);
//   - MemTraffic: memory-bound byte traffic (drives transpose CP).
type Features struct {
	Bytes      float64
	Mem        float64
	Flops      float64
	MemTraffic float64
}

// Names lists the canonical column names, in Vector order. These are the
// names the chem generators write into trace annotations.
var Names = []string{"bytes", "mem", "flops", "mem_traffic"}

// Vector returns the features as a slice in Names order.
func (f Features) Vector() []float64 {
	return []float64{f.Bytes, f.Mem, f.Flops, f.MemTraffic}
}

// FromRow reorders a named feature row into canonical Names order. The
// row may carry the columns in any order and may include extra columns
// (ignored); ok is false when a canonical column is missing. This is
// what lets a fit accept annotated traces whose producers ordered the
// columns differently.
func FromRow(names []string, row []float64) (vec []float64, ok bool) {
	if len(names) != len(row) {
		return nil, false
	}
	vec = make([]float64, len(Names))
	for i, want := range Names {
		found := false
		for j, have := range names {
			if have == want {
				vec[i] = row[j]
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return vec, true
}

// Dataset is a design matrix with one target column.
type Dataset struct {
	// X[i] is the canonical feature vector of sample i.
	X [][]float64
	// Y[i] is the observed duration of sample i.
	Y []float64
}

// N returns the sample count.
func (d Dataset) N() int { return len(d.X) }

// Extract builds the CM and CP training sets from feature-annotated
// traces: one sample per task that carries a feature row mappable to the
// canonical columns, with the task's observed communication
// (respectively computation) time as the target. Traces without
// annotations, and tasks without rows, are skipped. Order is trace
// order then task order, so the datasets are deterministic.
func Extract(traces []*trace.Trace) (cm, cp Dataset) {
	for _, tr := range traces {
		if len(tr.FeatureNames) == 0 {
			continue
		}
		for i, t := range tr.Tasks {
			row := tr.FeatureRow(i)
			if row == nil {
				continue
			}
			vec, ok := FromRow(tr.FeatureNames, row)
			if !ok {
				continue
			}
			cm.X = append(cm.X, vec)
			cm.Y = append(cm.Y, t.Comm)
			cp.X = append(cp.X, vec)
			cp.Y = append(cp.Y, t.Comp)
		}
	}
	return cm, cp
}

// Predictor estimates a duration from a canonical feature vector.
// Implementations must be deterministic and must expose a digest over
// their fitted parameters so tests can pin bit-reproducibility.
type Predictor interface {
	// Predict returns the estimated duration for a canonical feature
	// vector (Names order). May return small negative values near zero;
	// DurationModel clamps.
	Predict(x []float64) float64
	// Digest returns an FNV-64a hash over the fitted parameters' bits.
	Digest() string
}

// finite reports whether every value is a usable number.
func finite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
