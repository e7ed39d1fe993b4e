package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"transched/internal/core"
	"transched/internal/experiments"
	"transched/internal/flowshop"
	"transched/internal/obs"
	"transched/internal/trace"
)

// sweepChunk is the number of traces one paper-sweep operation covers:
// 90 cells, enough for an even pool on a few cores. sweepBlock is the
// number of operations a run measures, pass after pass: 200 of the 300
// traces, few enough for six or seven passes.
const (
	sweepChunk = 5
	sweepBlock = 40
)

// goldenSweepDigest is the FNV-64a digest of the ratio bits of the
// paper-sweep warm-up operations at the paper seed (20190415). A change
// that alters any heuristic's schedule on those traces changes it.
const goldenSweepDigest = 0xf1da8af29718563a

// paperSeed is the default seed: the paper's arXiv date, the seed the
// experiment drivers use for the paper-scale figures.
const paperSeed = 20190415

// sweepWorkload is the paper's own evaluation, Figs 9, 11 and 13 at
// paper scale: 150 HF and 150 CCSD traces of 300–800 tasks, the fourteen
// heuristics at the nine capacities from 1 to 2 mc, each trace whole and
// in submission batches of 100. One operation is experiments.RunSweep,
// whole and batched, over sweepChunk traces of one application (90
// cells, 1,260 simulations); a run measures sweepBlock of them, two
// thirds of the sweep.
type sweepWorkload struct {
	ops []sweepOp
	// digests[i] is the ratio digest of ops[i]'s first run; every later
	// run, at any worker count, must reproduce it bit for bit.
	digests []uint64
}

type sweepOp struct {
	app    string
	traces []*trace.Trace
}

func (w *sweepWorkload) close() {}

func (w *sweepWorkload) setup(r *run) error {
	traces, err := generateTraces(r)
	if err != nil {
		return err
	}
	// Operation c of an application takes the next sweepChunk traces of
	// its spread order, which span the length range, so the operations
	// cost about the same and what a run measures hardly depends on the
	// seed. The applications alternate, so the sweepBlock operations a run
	// measures are half HF and half CCSD.
	orders := spreadByApp(traces)
	w.ops = nil
	for c := 0; len(w.ops) < sweepBlock; c++ {
		for _, order := range orders {
			op := sweepOp{app: traces[order[0]].App}
			for _, t := range order[c*sweepChunk : (c+1)*sweepChunk] {
				op.traces = append(op.traces, traces[t])
			}
			w.ops = append(w.ops, op)
		}
	}
	w.digests = make([]uint64, len(w.ops))

	// Warm-up: the first two operations, whose ratios are pinned by a
	// golden digest at the paper seed.
	h := fnv.New64a()
	for i := 0; i < 2; i++ {
		sweeps, _, err := w.run(r, i, 0, nil)
		r.op(err)
		for _, sw := range sweeps {
			writeRatios(h, sw)
		}
	}
	if r.seed == paperSeed && h.Sum64() != goldenSweepDigest {
		r.fail(fmt.Errorf("warm-up ratio digest %016x, golden %016x", h.Sum64(), uint64(goldenSweepDigest)))
	}
	return nil
}

// run executes operation i — the chunk's sweep whole (Figs 9 and 11)
// and in batches of 100 (Fig 13) — on the given number of workers,
// returns the time the two RunSweep calls took, and checks the output:
// every ratio at least 1, and bit-identical to the operation's first run.
// With cells non-nil, the pool records a span per (trace, capacity) cell,
// which become child spans and are appended.
func (w *sweepWorkload) run(r *run, i, workers int, cells *[]time.Duration) ([]*experiments.Sweep, time.Duration, error) {
	op := w.ops[i]
	sp := r.spans.start("paper-sweep op", 0, -1)
	defer sp.stop()
	var sweeps []*experiments.Sweep
	var d time.Duration
	for _, batch := range []int{0, 100} {
		var tr *obs.Trace
		if cells != nil {
			tr = obs.NewTrace()
		}
		call := r.spans.start("experiments.RunSweep", 0, sp.id)
		sw, err := experiments.RunSweep(op.app, op.traces, experiments.DefaultMultipliers(),
			experiments.SweepOptions{BatchSize: batch, Workers: workers, Trace: tr})
		d += call.stop()
		if err != nil {
			return nil, d, err
		}
		sweeps = append(sweeps, sw)
		if cells != nil {
			cs, err := cellSpans(tr)
			if err != nil {
				return nil, d, err
			}
			for _, c := range cs {
				r.spans.add("experiments.cell", 0, call.id, call.start.Add(c.offset), c.dur)
				*cells = append(*cells, c.dur)
			}
		}
	}
	h := fnv.New64a()
	for _, sw := range sweeps {
		writeRatios(h, sw)
		for _, byM := range sw.Ratios {
			for _, byT := range byM {
				for _, ratio := range byT {
					if !(ratio >= 1-1e-12) || math.IsInf(ratio, 0) {
						return sweeps, d, fmt.Errorf("ratio %v below 1", ratio)
					}
				}
			}
		}
	}
	switch {
	case w.digests[i] == 0:
		w.digests[i] = h.Sum64()
	case w.digests[i] != h.Sum64():
		return sweeps, d, fmt.Errorf("operation %d ratios differ between runs (workers %d)", i, workers)
	}
	return sweeps, d, nil
}

func writeRatios(h interface{ Write([]byte) (int, error) }, sw *experiments.Sweep) {
	var buf [8]byte
	for _, byM := range sw.Ratios {
		for _, byT := range byM {
			for _, ratio := range byT {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ratio))
				h.Write(buf[:])
			}
		}
	}
}

func (w *sweepWorkload) measure(r *run) error {
	r.closedLoop(sweepBlock, func(i int) time.Duration {
		_, d, err := w.run(r, i, 0, nil)
		r.op(err)
		return d
	})
	return nil
}

// sweepLayerOps is the fixed number of operations a traced run times.
const sweepLayerOps = 16

func (w *sweepWorkload) layers(r *run) error {
	var par, serial, cells []time.Duration
	for i := 0; i < sweepLayerOps; i++ {
		_, d, err := w.run(r, i, 0, nil)
		r.op(err)
		par = append(par, d)
	}
	onOneCore(func() {
		for i := 0; i < sweepLayerOps; i++ {
			_, d, err := w.run(r, i, 1, &cells)
			r.op(err)
			serial = append(serial, d)
		}
	})
	r.reconcile("experiments cells", sum(cells), sum(serial))
	r.set("experiments.cells", float64(len(cells)), len(cells))
	r.setQuantile("experiments.cell_ms_p50", cells, 0.50, time.Millisecond)
	r.setQuantile("experiments.cell_ms_p99", cells, 0.99, time.Millisecond)
	r.set("experiments.pool_efficiency", sum(serial).Seconds()/(sum(par).Seconds()*float64(r.cores)), len(par))

	// The kernel under the sweep: each heuristic and each simulate entry
	// point, one call at a time, on the first operation's traces at 1.5 mc.
	var ins []*core.Instance
	for _, tr := range w.ops[0].traces {
		ins = append(ins, tr.Instance(tr.MinCapacity()*1.5))
	}
	kernel := r.spans.start("paper-sweep kernel", 0, -1)
	onOneCore(func() {
		for _, in := range ins {
			heuristicLayers(r, kernel.id, in, flowshop.OMIM(in.Tasks))
		}
		simulateLayers(r, kernel.id, ins)
	})
	kernel.stop()
	setHeuristicLayers(r)
	return nil
}

// cellSpan is one sweep cell as the pool recorded it: its start relative
// to the sweep's first cell, and its duration.
type cellSpan struct{ offset, dur time.Duration }

// cellSpans reads back the cell spans the sweep pool recorded into tr.
func cellSpans(tr *obs.Trace) ([]cellSpan, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct{ TraceEvents []obs.Event }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("reading cell spans: %w", err)
	}
	var out []cellSpan
	for _, ev := range doc.TraceEvents {
		if sec, ok := ev.Args["seconds"].(float64); ok && ev.Phase == "X" {
			out = append(out, cellSpan{
				offset: time.Duration(ev.TS * float64(time.Microsecond)),
				dur:    time.Duration(sec * float64(time.Second)),
			})
		}
	}
	return out, nil
}
