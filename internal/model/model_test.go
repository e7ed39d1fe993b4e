package model

import (
	"math"
	"testing"

	"transched/internal/core"
	"transched/internal/trace"
)

func vec(bytes, mem, flops, traffic float64) []float64 {
	return Features{Bytes: bytes, Mem: mem, Flops: flops, MemTraffic: traffic}.Vector()
}

func TestFeaturesVectorMatchesNames(t *testing.T) {
	f := Features{Bytes: 1, Mem: 2, Flops: 3, MemTraffic: 4}
	v := f.Vector()
	if len(v) != len(Names) {
		t.Fatalf("Vector len %d, Names len %d", len(v), len(Names))
	}
	want := []float64{1, 2, 3, 4}
	for i := range v {
		if v[i] != want[i] {
			t.Errorf("Vector[%d] = %g, want %g", i, v[i], want[i])
		}
	}
}

func TestFromRow(t *testing.T) {
	// Reordered columns with an extra one.
	names := []string{"flops", "extra", "bytes", "mem_traffic", "mem"}
	row := []float64{3, 99, 1, 4, 2}
	v, ok := FromRow(names, row)
	if !ok {
		t.Fatal("FromRow failed")
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if v[i] != want {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want)
		}
	}
	if _, ok := FromRow([]string{"bytes"}, []float64{1}); ok {
		t.Error("missing columns should fail")
	}
	if _, ok := FromRow([]string{"bytes"}, []float64{1, 2}); ok {
		t.Error("len mismatch should fail")
	}
}

func TestExtract(t *testing.T) {
	traces := []*trace.Trace{
		{ // no annotations: skipped
			Tasks: []core.Task{{Name: "a", Comm: 1, Comp: 2}},
		},
		{
			Tasks:        []core.Task{{Name: "b", Comm: 3, Comp: 4}, {Name: "c", Comm: 5, Comp: 6}},
			FeatureNames: []string{"bytes", "mem", "flops", "mem_traffic"},
			Features:     [][]float64{{10, 20, 30, 40}, nil}, // c has no row: skipped
		},
	}
	cm, cp := Extract(traces)
	if cm.N() != 1 || cp.N() != 1 {
		t.Fatalf("N = %d/%d, want 1/1", cm.N(), cp.N())
	}
	if cm.Y[0] != 3 || cp.Y[0] != 4 {
		t.Errorf("targets = %g/%g, want 3/4", cm.Y[0], cp.Y[0])
	}
	if cm.X[0][0] != 10 || cp.X[0][3] != 40 {
		t.Errorf("features = %v", cm.X[0])
	}
}

// linearDataset builds y = 2 + 3*x0 - 0.5*x2 with collinear x1 = 2*x0,
// the same structural collinearity the chem features carry (mem tracks
// bytes exactly for every task type).
func linearDataset(n int) Dataset {
	var ds Dataset
	for i := 0; i < n; i++ {
		x0 := float64(i%17) + 0.25*float64(i%5)
		x2 := float64((i*7)%13) - 3
		x := vec(x0, 2*x0, x2, float64(i%3))
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, 2+3*x0-0.5*x2)
	}
	return ds
}

func TestRidgeRecoversLinearModel(t *testing.T) {
	ds := linearDataset(200)
	r, err := FitRidge(ds, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ds.X {
		if got := r.Predict(x); math.Abs(got-ds.Y[i]) > 1e-6*(1+math.Abs(ds.Y[i])) {
			t.Fatalf("Predict(%v) = %g, want %g", x, got, ds.Y[i])
		}
	}
}

func TestRidgeErrors(t *testing.T) {
	if _, err := FitRidge(Dataset{}, 1); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := FitRidge(linearDataset(10), 0); err == nil {
		t.Error("lambda 0 should fail")
	}
	if _, err := FitRidge(linearDataset(10), -1); err == nil {
		t.Error("negative lambda should fail")
	}
	bad := linearDataset(10)
	bad.Y[3] = math.NaN()
	if _, err := FitRidge(bad, 1e-6); err == nil {
		t.Error("NaN target should fail")
	}
	ragged := linearDataset(10)
	ragged.X[2] = []float64{1}
	if _, err := FitRidge(ragged, 1e-6); err == nil {
		t.Error("ragged design should fail")
	}
	short := linearDataset(10)
	short.Y = short.Y[:5]
	if _, err := FitRidge(short, 1e-6); err == nil {
		t.Error("X/Y length mismatch should fail")
	}
}

func TestRidgeConstantColumnAndTarget(t *testing.T) {
	var ds Dataset
	for i := 0; i < 8; i++ {
		ds.X = append(ds.X, vec(1, 1, 1, 1)) // all columns constant
		ds.Y = append(ds.Y, 7)
	}
	r, err := FitRidge(ds, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Predict(vec(1, 1, 1, 1)); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant fit predicts %g, want 7", got)
	}
}

func TestCrossValidate(t *testing.T) {
	ds := linearDataset(100)
	rep, err := CrossValidate(ds, 5, 1, func(d Dataset) (Predictor, error) {
		return FitRidge(d, 1e-9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.K != 5 || rep.N != 100 {
		t.Errorf("rep = %+v", rep)
	}
	if rep.MAPE > 1e-6 {
		t.Errorf("MAPE = %g on an exactly linear dataset", rep.MAPE)
	}
	if rep.R2 < 1-1e-9 {
		t.Errorf("R2 = %g on an exactly linear dataset", rep.R2)
	}
	if _, err := CrossValidate(ds, 1, 1, nil); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := CrossValidate(linearDataset(3), 5, 1, nil); err == nil {
		t.Error("n < k should fail")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	ds := linearDataset(60)
	fit := func(d Dataset) (Predictor, error) { return FitRidge(d, 1e-6) }
	a, err := CrossValidate(ds, 4, 9, fit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(ds, 4, 9, fit)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different reports: %+v vs %+v", a, b)
	}
}

func TestPerturbTasks(t *testing.T) {
	tasks := []core.Task{
		{Name: "a", Comm: 1, Comp: 2, Mem: 3},
		{Name: "b", Comm: 4, Comp: 5, Mem: 6},
	}
	// sigma 0: identical copy, input untouched.
	out := PerturbTasks(tasks, 0, 1)
	for i := range tasks {
		if out[i] != tasks[i] {
			t.Errorf("sigma 0 changed task %d: %+v", i, out[i])
		}
	}
	out = PerturbTasks(tasks, 0.5, 1)
	if &out[0] == &tasks[0] {
		t.Fatal("PerturbTasks must copy")
	}
	for i := range tasks {
		if out[i].Mem != tasks[i].Mem {
			t.Errorf("Mem must be preserved, task %d: %g", i, out[i].Mem)
		}
		if out[i].Name != tasks[i].Name {
			t.Errorf("Name changed, task %d", i)
		}
		if out[i].Comm <= 0 || out[i].Comp <= 0 {
			t.Errorf("multiplicative noise kept signs, task %d: %+v", i, out[i])
		}
	}
	if out[0].Comm == tasks[0].Comm && out[1].Comm == tasks[1].Comm {
		t.Error("sigma 0.5 left every Comm unchanged")
	}
	// Deterministic per seed.
	again := PerturbTasks(tasks, 0.5, 1)
	for i := range out {
		if out[i] != again[i] {
			t.Errorf("same seed, different perturbation at %d", i)
		}
	}
	other := PerturbTasks(tasks, 0.5, 2)
	if other[0] == out[0] && other[1] == out[1] {
		t.Error("different seeds should perturb differently")
	}
}

func TestFitOptionsValidation(t *testing.T) {
	if _, _, err := FitDurationModel(nil, FitOptions{}); err == nil {
		t.Error("no annotated traces should fail")
	}
}
