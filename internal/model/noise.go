package model

import (
	"fmt"
	"math"
	"math/rand"

	"transched/internal/core"
	"transched/internal/trace"
)

// MinSigma floors the calibrated noise level. The chem workloads derive
// durations from the same linear cost model the features encode, so an
// in-distribution fit is near-exact and the raw residual spread can be
// numerically zero — which would make every "calibrated" noise level
// zero too and the robustness sweep vacuous. Real instrumented traces
// carry at least a few percent of run-to-run variation (the paper's
// Cascade measurements were averaged over repetitions for exactly that
// reason), so the floor stands in for the measurement noise the
// synthetic workloads lack.
const MinSigma = 0.05

// FitOptions configures FitDurationModel. Zero values mean: lambda
// 1e-6, 5 folds, seed 1.
type FitOptions struct {
	// Lambda is the L2 regularisation strength (default 1e-6).
	Lambda float64
	// Folds is the cross-validation fold count (default 5).
	Folds int
	// Seed drives fold assignment and nothing else.
	Seed int64
}

func (o FitOptions) withDefaults() FitOptions {
	if o.Lambda == 0 {
		o.Lambda = 1e-6
	}
	if o.Folds == 0 {
		o.Folds = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DurationModel packages one fitted estimator per duration component.
type DurationModel struct {
	// CM predicts communication time, CP computation time.
	CM, CP Predictor
	// Sigma is the calibrated lognormal noise level: the pooled standard
	// deviation of log(predicted/actual) over the training residuals,
	// floored at MinSigma.
	Sigma float64
}

// FitReport carries everything the CLIs print about a fit.
type FitReport struct {
	// NCM and NCP are the training-set sizes (identical today — every
	// annotated task contributes to both — but reported separately so a
	// future partial annotation doesn't silently lie).
	NCM, NCP int
	// CVCM and CVCP are the cross-validation reports per component.
	CVCM, CVCP CVReport
	// DigestCM and DigestCP pin the fitted parameters bit-for-bit.
	DigestCM, DigestCP string
	// SigmaRaw is the residual spread before the MinSigma floor; Sigma
	// is the value the robustness sweep scales.
	SigmaRaw, Sigma float64
}

// FitDurationModel extracts the CM/CP datasets from annotated traces,
// fits a ridge estimator to each, cross-validates both, and calibrates
// the noise level from the training residuals. Deterministic for fixed
// traces and options.
func FitDurationModel(traces []*trace.Trace, opts FitOptions) (*DurationModel, *FitReport, error) {
	opts = opts.withDefaults()
	cm, cp := Extract(traces)
	if cm.N() == 0 {
		return nil, nil, fmt.Errorf("model: no feature-annotated tasks in %d traces", len(traces))
	}
	fit := func(ds Dataset) (Predictor, error) { return FitRidge(ds, opts.Lambda) }
	pcm, err := fit(cm)
	if err != nil {
		return nil, nil, fmt.Errorf("model: CM fit: %w", err)
	}
	pcp, err := fit(cp)
	if err != nil {
		return nil, nil, fmt.Errorf("model: CP fit: %w", err)
	}
	cvcm, err := CrossValidate(cm, opts.Folds, opts.Seed, fit)
	if err != nil {
		return nil, nil, fmt.Errorf("model: CM cross-validation: %w", err)
	}
	cvcp, err := CrossValidate(cp, opts.Folds, opts.Seed+1, fit)
	if err != nil {
		return nil, nil, fmt.Errorf("model: CP cross-validation: %w", err)
	}
	raw := residualSigma(pcm, cm, pcp, cp)
	m := &DurationModel{CM: pcm, CP: pcp, Sigma: math.Max(raw, MinSigma)}
	rep := &FitReport{
		NCM: cm.N(), NCP: cp.N(),
		CVCM: cvcm, CVCP: cvcp,
		DigestCM: pcm.Digest(), DigestCP: pcp.Digest(),
		SigmaRaw: raw, Sigma: m.Sigma,
	}
	return m, rep, nil
}

// residualSigma pools the CM and CP training residuals on the log scale
// and returns their standard deviation: the sigma of the multiplicative
// (lognormal) error model actual = predicted * exp(sigma*z). Pairs where
// either side is at or below zero carry no ratio information and are
// skipped.
func residualSigma(pcm Predictor, cm Dataset, pcp Predictor, cp Dataset) float64 {
	var logs []float64
	collect := func(p Predictor, ds Dataset) {
		for i, x := range ds.X {
			pred := p.Predict(x)
			if pred > 0 && ds.Y[i] > 0 {
				logs = append(logs, math.Log(pred/ds.Y[i]))
			}
		}
	}
	collect(pcm, cm)
	collect(pcp, cp)
	if len(logs) < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range logs {
		mean += v
	}
	mean /= float64(len(logs))
	ss := 0.0
	for _, v := range logs {
		dev := v - mean
		ss += dev * dev
	}
	return math.Sqrt(ss / float64(len(logs)))
}

// PerturbTasks returns a copy of tasks with communication and
// computation times multiplied by independent lognormal factors
// exp(sigma*z), z ~ N(0,1) from the seeded source — the calibrated
// misprediction model the robustness sweep runs the heuristics under.
// Memory requirements are untouched: capacity is known exactly (it is a
// declared allocation, not a measured duration), so the feasibility
// structure of the instance is preserved. sigma = 0 returns an
// unmodified copy without consuming randomness.
func PerturbTasks(tasks []core.Task, sigma float64, seed int64) []core.Task {
	out := append([]core.Task(nil), tasks...)
	if sigma == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range out {
		out[i].Comm *= math.Exp(sigma * rng.NormFloat64())
		out[i].Comp *= math.Exp(sigma * rng.NormFloat64())
	}
	return out
}
