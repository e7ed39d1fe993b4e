package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"transched/internal/core"
	"transched/internal/flowshop"
	"transched/internal/heuristics"
	"transched/internal/simulate"
	"transched/internal/trace"
)

// A workload builds its inputs from the seed, then measures them either
// end to end (untraced) or layer by layer (traced).
type workload interface {
	// setup generates the inputs and runs an untimed warm-up; the
	// benchmark calls it several times and reports the median as setup_s.
	setup(r *run) error
	// measure runs the end-to-end phases for r.budget and records every
	// end-to-end metric.
	measure(r *run) error
	// layers runs a fixed amount of work with spans around every call
	// into a module and records every per-layer metric it exercises.
	layers(r *run) error
	close()
}

// workloads lists the benchmark's workloads in the order the all-mode
// runs them; README.md records why each exists.
var workloads = []struct {
	name string
	new  func() workload
}{
	{"paper-sweep", func() workload { return &sweepWorkload{} }},
	{"solve-stream", func() workload { return &solveWorkload{} }},
	{"milp-window", func() workload { return &milpWorkload{} }},
	{"serve-mixed", func() workload { return &serveWorkload{} }},
}

// minPasses is the fewest passes a run measures, however long they take.
const minPasses = 3

// passes runs pass again and again, collecting garbage before each so
// that every pass starts from the same heap, until the next pass would
// overrun the budget (at least minPasses times). Every pass does the same
// operations in the same order and returns one time for each. passes
// returns each operation's fastest time over the passes, and the number
// of passes.
//
// The fastest pass, not the median, because of the host: other tenants
// of a shared machine slow it by 10–30 % for spells of several seconds to
// a minute, and only ever add time. An operation timed in several passes
// spread over the run is timed at least once outside a spell, so its
// fastest time hardly moves from run to run, while a change to the code
// shows in every pass and moves it fully.
func passes(budget time.Duration, pass func() []time.Duration) ([]time.Duration, int) {
	var fastest []time.Duration
	begin := time.Now()
	var last time.Duration
	k := 0
	for ; k < minPasses || time.Since(begin)+last <= budget; k++ {
		runtime.GC()
		start := time.Now()
		for i, d := range pass() {
			if k == 0 {
				fastest = append(fastest, d)
			}
			fastest[i] = min(fastest[i], d)
		}
		last = time.Since(start)
	}
	return fastest, k
}

// closedLoop measures one caller issuing the first n operations back to
// back, pass after pass, and records every end-to-end metric but setup_s
// from the operations' times: their median and 90th percentile, and the
// operations per second of those times. Time op spends checking its
// output counts against the budget but not in its time.
func (r *run) closedLoop(n int, op func(i int) time.Duration) {
	lat, k := passes(r.budget, func() []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = op(i)
		}
		return ds
	})
	r.setQuantile("p50_ms", lat, 0.50, time.Millisecond)
	r.setQuantile("p90_ms", lat, 0.90, time.Millisecond)
	r.set("throughput_per_s", throughput(lat), n*k)
}

// seedStride spaces the chem seeds of consecutive benchmark seeds. chem
// seeds process p's generator with its seed plus p, so seeds one apart
// would share all traces but one; seedStride apart, more than any
// process count here, each benchmark seed has traces of its own.
const seedStride = 1 << 10

// chemSeed is the chem.Config seed of a benchmark seed; the paper seed
// keeps the paper's traces.
func chemSeed(seed int64) int64 { return paperSeed + (seed-paperSeed)*seedStride }

// spreadByApp returns, for each application in order of first
// appearance, the indexes of its traces in an order that spreads every
// prefix over the length range: the k-th is the trace left whose length
// is nearest the k-th point of a golden-ratio sequence over the
// application's range. An operation's cost follows the trace's length, so
// the first few traces in this order cost about the same at every seed:
// among 150 traces of 300–800 tasks the nearest is a few tasks from the
// point.
func spreadByApp(traces []*trace.Trace) [][]int {
	var apps []string
	byApp := map[string][]int{}
	for i, tr := range traces {
		if byApp[tr.App] == nil {
			apps = append(apps, tr.App)
		}
		byApp[tr.App] = append(byApp[tr.App], i)
	}
	length := func(i int) float64 { return float64(len(traces[i].Tasks)) }
	var orders [][]int
	for _, app := range apps {
		left := byApp[app]
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range left {
			lo, hi = math.Min(lo, length(i)), math.Max(hi, length(i))
		}
		var order []int
		for k := 0; len(left) > 0; k++ {
			point := lo + (hi-lo)*math.Mod((float64(k)+0.5)*(math.Sqrt(5)-1)/2, 1)
			best := 0
			for j, i := range left {
				if math.Abs(length(i)-point) < math.Abs(length(left[best])-point) {
					best = j
				}
			}
			order = append(order, left[best])
			left = append(left[:best:best], left[best+1:]...)
		}
		orders = append(orders, order)
	}
	return orders
}

// spreadOrder is spreadByApp with the applications alternating, so that
// every prefix also holds each application about equally.
func spreadOrder(traces []*trace.Trace) []int {
	orders := spreadByApp(traces)
	var out []int
	for k := 0; len(out) < len(traces); k++ {
		for _, order := range orders {
			if k < len(order) {
				out = append(out, order[k])
			}
		}
	}
	return out
}

// onOneCore runs fn with GOMAXPROCS set to 1: every pool in the program
// then runs its serial path, and garbage collection shares the core.
func onOneCore(fn func()) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// checkSchedule independently validates a schedule some path returned:
// it must be feasible and its makespan no shorter than the
// infinite-memory optimum.
func checkSchedule(what string, s *core.Schedule, omim float64) error {
	if s == nil {
		return fmt.Errorf("%s: no schedule", what)
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if span := s.Makespan(); span < omim*(1-1e-12) {
		return fmt.Errorf("%s: makespan %v beats the infinite-memory optimum %v", what, span, omim)
	}
	return nil
}

// heuristicLayers runs the fourteen heuristics one at a time on in,
// each inside a span named heuristics.Run.<H>, and returns the best
// makespan and the time the runs took.
func heuristicLayers(r *run, parent int, in *core.Instance, omim float64) (best float64, busy time.Duration) {
	best = math.Inf(1)
	for _, h := range heuristics.All(in.Capacity) {
		var s *core.Schedule
		var err error
		busy += r.spans.timed("heuristics.Run."+h.Name, 0, parent, func() { s, err = h.Run(in) })
		if err == nil {
			err = checkSchedule(h.Name, s, omim)
		}
		r.op(err)
		if err == nil {
			best = math.Min(best, s.Makespan())
		}
	}
	return best, busy
}

// setHeuristicLayers records heuristics.run_us.<H> from the spans.
func setHeuristicLayers(r *run) {
	for _, h := range heuristics.Names() {
		r.setQuantile("heuristics.run_us."+h, r.spans.durations("heuristics.Run."+h), 0.5, time.Microsecond)
	}
}

// simulateCalls are the simulate entry points the heuristics are built
// from: a static order, dynamic selection, a static order with dynamic
// corrections, and the corrected policy in submission batches of 100.
var simulateCalls = []struct {
	layer string
	call  func(in *core.Instance) (*core.Schedule, error)
}{
	{"static", func(in *core.Instance) (*core.Schedule, error) {
		return simulate.Static(in, flowshop.JohnsonOrder(in.Tasks))
	}},
	{"dynamic", func(in *core.Instance) (*core.Schedule, error) {
		return simulate.Dynamic(in, simulate.LargestComm)
	}},
	{"corrected", func(in *core.Instance) (*core.Schedule, error) {
		return simulate.Corrected(in, flowshop.JohnsonOrder(in.Tasks), simulate.LargestComm)
	}},
	{"batches", func(in *core.Instance) (*core.Schedule, error) {
		return simulate.RunBatches(in, 100, simulate.Policy{Order: flowshop.JohnsonOrder, Crit: simulate.LargestComm})
	}},
}

// simulateLayers times every simulate entry point on each instance and
// records simulate.<call>_us_p50 and simulate.allocs_per_run.
func simulateLayers(r *run, parent int, ins []*core.Instance) {
	for _, in := range ins {
		omim := flowshop.OMIM(in.Tasks)
		for _, c := range simulateCalls {
			var s *core.Schedule
			var err error
			r.spans.timed("simulate."+c.layer, 0, parent, func() { s, err = c.call(in) })
			if err == nil {
				err = checkSchedule("simulate."+c.layer, s, omim)
			}
			r.op(err)
		}
	}
	for _, c := range simulateCalls {
		r.setQuantile("simulate."+c.layer+"_us_p50", r.spans.durations("simulate."+c.layer), 0.5, time.Microsecond)
	}
	calls := len(ins) * len(simulateCalls)
	allocs := countAllocs(func() {
		for _, in := range ins {
			for _, c := range simulateCalls {
				c.call(in)
			}
		}
	})
	r.set("simulate.allocs_per_run", math.Round(float64(allocs)/float64(calls)), calls)
}

// countAllocs returns the heap allocations a second call of fn makes.
// It runs on one core with the garbage collector held off, so pooled
// state filled by the first call is still there for the second and the
// count repeats exactly from run to run.
func countAllocs(fn func()) (allocs uint64) {
	onOneCore(func() {
		prev := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(prev)
		fn()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	})
	return allocs
}
