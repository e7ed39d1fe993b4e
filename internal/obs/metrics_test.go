package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cells")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("cells") != c {
		t.Error("counter lookup is not get-or-create")
	}

	g := r.Gauge("mem")
	g.Set(3.5)
	g.SetMax(2) // below current: no change
	g.SetMax(7.25)
	if g.Value() != 7.25 {
		t.Errorf("gauge = %g, want 7.25", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-556.5) > 1e-9 {
		t.Errorf("sum = %g", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 {
		t.Fatalf("%d metrics", len(snap.Metrics))
	}
	m := snap.Metrics[0]
	// Inclusive upper bounds: 0.5 and 1 land in le=1; 5 in le=10; 50 in
	// le=100; 500 overflows to le=+Inf.
	wantCounts := []int64{2, 1, 1, 1}
	for i, want := range wantCounts {
		if m.Buckets[i].Count != want {
			t.Errorf("bucket %d (le=%g) = %d, want %d", i, m.Buckets[i].UpperBound, m.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(m.Buckets[3].UpperBound, 1) {
		t.Errorf("overflow bound = %g", m.Buckets[3].UpperBound)
	}
}

func TestSnapshotTextRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweep_cells_total").Add(42)
	r.Gauge("memory_in_use").Set(1.5)
	r.Histogram("cell_seconds", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"sweep_cells_total 42",
		"memory_in_use 1.5",
		"cell_seconds count=1 sum=0.5 mean=0.5",
		"cell_seconds{le=1} 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentMetricUpdates hammers one counter, one gauge and one
// histogram from many goroutines — the pattern par.ForEachIndexErr workers
// produce — and checks totals. Run under -race (scripts/verify.sh does)
// this is the data-race gate for the metrics core.
func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DefaultBuckets())
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(float64(w*perWorker + i))
				h.Observe(float64(i%7) * 0.01)
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent readers are fine too
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker-1 {
		t.Errorf("gauge high-water = %g, want %d", g.Value(), workers*perWorker-1)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	total := int64(0)
	for _, b := range r.Snapshot().Metrics[2].Buckets {
		total += b.Count
	}
	if total != workers*perWorker {
		t.Errorf("bucket total = %d, want %d", total, workers*perWorker)
	}
}

// TestGaugeAddPairedTransitions: a level gauge driven by paired
// Add(+1)/Add(-1) calls from many goroutines must read exactly zero
// once every pair has completed — the property the serve queue-depth
// gauge relies on (a read-then-Set scheme can publish a stale reading
// last and stick nonzero forever).
func TestGaugeAddPairedTransitions(t *testing.T) {
	var g Gauge
	const workers, rounds = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("gauge after paired storm = %g, want 0", got)
	}
	if got := g.Add(2.5); got != 2.5 {
		t.Errorf("Add return = %g, want 2.5", got)
	}
	if got := g.Add(-1); got != 1.5 {
		t.Errorf("Add return = %g, want 1.5", got)
	}
}
