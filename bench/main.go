// Command bench is this repository's benchmark. It runs four workloads
// that exercise different layers of the scheduler — the paper-scale
// sweep, the CLI solve path, the windowed MILP and the serving daemon —
// checks every output, and prints every metric by name with its unit and
// sample count. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// Usage, from the root of the repository:
//
//	bash bench/run.sh [-workload all|paper-sweep|solve-stream|milp-window|serve-mixed]
//	                  [-seed 20190415] [-seconds 27] [-trace 0|1]
//	                  [-trace-out spans.json] [-out results.jsonl]
//	bash bench/run.sh compare [-spec BENCHMARK.json] <parent results> <change results>
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) times every call into a module in its own span, reports the
// per-layer metrics and fails, naming the layer, when the layer spans do
// not add up to the end-to-end time they make up. README.md describes the
// workloads, the metrics and the committed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"transched/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 7

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name     = fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed     = fs.Int64("seed", paperSeed, "seed the workload inputs are generated from")
		seconds  = fs.Int("seconds", 27, "measured seconds per workload")
		traced   = fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1, write every span as Chrome trace-event JSON to this file")
		out      = fs.String("out", "", "append one JSON results record per workload run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "bench: -seconds %d must be at least 1\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "bench: -trace %d must be 0 or 1\n", *traced)
		return 2
	case *traceOut != "" && *traced != 1:
		fmt.Fprintln(stderr, "bench: -trace-out needs -trace 1")
		return 2
	}
	var chosen []int
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}

	var chrome *obs.Trace
	if *traceOut != "" {
		chrome = obs.NewTrace()
	}
	cores := runtime.GOMAXPROCS(0)
	var recs []record
	for _, i := range chosen {
		w := workloads[i]
		rec, err := runWorkload(w.name, w.new, *seed, time.Duration(*seconds)*time.Second, cores, *traced == 1, chrome, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		recs = append(recs, rec)
	}
	if err := chrome.WriteFile(*traceOut); err != nil {
		fmt.Fprintln(stderr, "bench: writing spans:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintln(stderr, "bench: writing results:", err)
			return 1
		}
	}
	last := result{Metrics: map[string]value{}}
	last.Correct = true
	for _, rec := range recs {
		last.Correct = last.Correct && rec.Correct
		last.Attempted += rec.Attempted
		last.Failed += rec.Failed
		for m, v := range rec.Metrics {
			if len(recs) > 1 {
				m = rec.Workload + "/" + m
			}
			last.Metrics[m] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run as -out writes it and compare reads it.
type record struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Cores     int                     `json:"cores"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]sampledValue `json:"metrics"`
}

type sampledValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// runWorkload sets the workload up setupReps times, measures it once,
// prints its metrics and returns its record.
func runWorkload(name string, newW func() workload, seed int64, budget time.Duration, cores int,
	traced bool, chrome *obs.Trace, stdout, stderr io.Writer) (record, error) {
	r := newRun(seed, budget, cores, traced)
	r.chrome = chrome
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = newW()
		// Every set-up starts from the same heap, not from the garbage of
		// the one before.
		runtime.GC()
		start := time.Now()
		if err := w.setup(r); err != nil {
			return record{}, err
		}
		setups = append(setups, time.Since(start))
	}
	r.setQuantile("setup_s", setups, 0.5, time.Second)

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	defs := endToEnd
	if traced {
		// The traced run's spans cover its fixed work only, not the
		// set-ups' warm-up operations.
		r.spans = newSpans()
		defs = perLayer
		if err := w.layers(r); err != nil {
			return record{}, err
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.set("go.heap_peak_mb", float64(after.HeapSys)/(1<<20), 1)
		r.set("go.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	} else if err := w.measure(r); err != nil {
		return record{}, err
	}
	r.spans.export(chrome, "bench "+name)

	rec := record{
		Workload: name, Seed: seed, Seconds: budget.Seconds(), Trace: traced, Cores: cores,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]sampledValue{},
	}
	fmt.Fprintf(stdout, "%s  seed %d  %v  %d cores  trace %v\n", name, seed, budget, cores, traced)
	for _, d := range defs {
		v := sampledValue{Value: r.values[d.name], Unit: d.unit, Samples: r.samples[d.name]}
		rec.Metrics[d.name] = v
		fmt.Fprintf(stdout, "  %-34s %14.6g %-6s n=%d\n", d.name, v.Value, v.Unit, v.Samples)
	}
	fmt.Fprintf(stdout, "  operations attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", name, p)
	}
	return rec, nil
}

// appendRecords appends one JSON line per record to path.
func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
