package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"transched"
	"transched/internal/obs"
	"transched/internal/serve"
	"transched/internal/trace"
)

// The serve-mixed traffic: one request in every missEvery carries a
// (trace, capacity) key never seen before, so it misses and solves; the
// others repeat one of hotKeys (trace, 1.5 mc) keys primed during setup.
// The miss takes a seeded place in its block, so the share is exact in
// every step. The mix, the key counts, the cold capacity range and the
// rate are assumed, not taken from recorded traffic; the traced run
// reports hit and miss latency apart so that no conclusion needs the
// share.
const (
	hotKeys   = 32
	missEvery = 5
	// baseRate is the offered rate of the fixed-rate steps behind p50_ms
	// and p90_ms.
	baseRate = 200.0
	// servePass is the number of requests in the mix: a run offers it once
	// per pass at baseRate and then sends it again as fast as the
	// connections allow.
	servePass = 400
	// coldShift moves every cold request's capacity from one use of the
	// mix to the next, so its key is new each time while the solve it asks
	// for costs the same.
	coldShift = 1e-6
)

// serveWorkload drives an in-process daemon — serve.New with the shipped
// defaults and tracing off, behind its own ListenAndServe on a loopback
// port — with raw v1 trace bodies from at most one connection per core.
type serveWorkload struct {
	traces  []*trace.Trace
	bodies  []string
	hot     []int     // trace index of each hot key
	hotBody [][]byte  // each hot key's first response
	mix     []request // the requests every use of the mix sends, in order
	uses    int       // uses of the mix so far; each shifts the cold keys
	daemon  *daemon
	clients []*http.Client
}

// request is one planned request. keepBody asks send to return the
// response body: to verify a cold answer, or to record a hot key's first.
type request struct {
	trace    int
	hot      int // hot key index, -1 for a cold request
	capacity float64
	keepBody bool
}

// reply is what a response carried that the checks and layers need.
type reply struct {
	hit    bool
	timing string
	body   []byte // kept only for a cold request to verify
}

func (w *serveWorkload) setup(r *run) error {
	traces, bodies, err := renderTraces(r)
	if err != nil {
		return err
	}
	w.traces, w.bodies = traces, bodies
	rng := rand.New(rand.NewSource(r.seed))
	// The hot keys are the first traces of the spread order and the cold
	// requests take the next ones, at capacities from a seeded additive
	// (√2 − 1) sequence over 1.25–2 mc, so both cover the applications,
	// the lengths and the capacities evenly and neither path's cost hangs
	// on which traces and capacities the seed drew.
	order := spreadOrder(traces)
	cold := order[hotKeys:]
	w.hot = order[:hotKeys]
	coldCap := rng.Float64()
	w.mix = make([]request, servePass)
	colds := 0
	for b := 0; b < servePass; b += missEvery {
		miss := b + rng.Intn(missEvery)
		for i := b; i < b+missEvery && i < servePass; i++ {
			if i != miss {
				k := rng.Intn(hotKeys)
				w.mix[i] = request{trace: w.hot[k], hot: k, capacity: 1.5}
				continue
			}
			// √2 − 1 is irrational, so no two capacities coincide and,
			// unlike the golden ratio of the trace order, it does not move
			// in step with the trace lengths.
			w.mix[i] = request{
				trace:    cold[colds],
				hot:      -1,
				capacity: 1.25 + 0.75*math.Mod(coldCap+float64(colds)*(math.Sqrt2-1), 1),
				keepBody: colds%10 == 9,
			}
			colds++
		}
	}
	for c := 0; c < r.cores; c++ {
		w.clients = append(w.clients, &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	if w.daemon, err = startDaemon(serve.Config{Registry: obs.NewRegistry()}); err != nil {
		return err
	}
	if w.hotBody, err = w.prime(w.daemon); err != nil {
		return err
	}
	// Warm-up: the first quarter of the mix at the fixed rate.
	w.step(r, w.daemon, baseRate, w.requests(1)[:servePass/4], -1)
	return nil
}

// requests returns the mix n times over, each use with cold keys of its
// own.
func (w *serveWorkload) requests(n int) []request {
	var out []request
	for ; n > 0; n-- {
		for _, q := range w.mix {
			if q.hot < 0 {
				q.capacity += float64(w.uses) * coldShift
			}
			out = append(out, q)
		}
		w.uses++
	}
	return out
}

func (w *serveWorkload) close() {
	if w.daemon != nil {
		w.daemon.close()
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
}

// daemon is a serve.Server running its own ListenAndServe.
type daemon struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: serve.New(cfg), cancel: cancel, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		d.done <- d.srv.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second,
			func(a net.Addr) { addr <- a.String() })
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case err := <-d.done:
		cancel()
		return nil, fmt.Errorf("starting the daemon: %w", err)
	}
}

// close drains the daemon and waits for ListenAndServe to return.
func (d *daemon) close() {
	d.cancel()
	<-d.done
}

// prime sends every hot key once and returns the responses.
func (w *serveWorkload) prime(d *daemon) ([][]byte, error) {
	bodies := make([][]byte, len(w.hot))
	for k, t := range w.hot {
		rep, err := w.send(d, w.clients[0], request{trace: t, hot: -1, capacity: 1.5, keepBody: true})
		if err != nil {
			return nil, fmt.Errorf("priming hot key %d: %w", k, err)
		}
		bodies[k] = rep.body
	}
	return bodies, nil
}

// send posts one request as a raw v1 body and checks a hot key's
// response against its first one, byte for byte.
func (w *serveWorkload) send(d *daemon, client *http.Client, q request) (reply, error) {
	url := d.url + "/solve?capacity=" + strconv.FormatFloat(q.capacity, 'g', -1, 64)
	resp, err := client.Post(url, "text/plain", strings.NewReader(w.bodies[q.trace]))
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	rep := reply{hit: resp.Header.Get("X-Transched-Cache") == "hit", timing: resp.Header.Get("X-Transched-Timing")}
	switch {
	case q.hot >= 0 && !bytes.Equal(body, w.hotBody[q.hot]):
		return rep, fmt.Errorf("hot key %d answered with different bytes than its first response", q.hot)
	case q.keepBody:
		rep.body = body
	}
	return rep, nil
}

// verify re-solves a cold request's instance through the facade and
// compares the best makespan with the daemon's answer.
func (w *serveWorkload) verify(q request, body []byte) error {
	res, err := transched.Solve(context.Background(), w.traces[q.trace],
		transched.SolveOptions{CapacityMultiplier: q.capacity})
	if err != nil {
		return err
	}
	var resp struct {
		Best struct {
			Makespan float64 `json:"makespan"`
		} `json:"best"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding a cold response: %w", err)
	}
	if resp.Best.Makespan != res.Best.Makespan {
		return fmt.Errorf("daemon makespan %v, direct solve %v", resp.Best.Makespan, res.Best.Makespan)
	}
	return nil
}

// step offers reqs at rate from every connection, then verifies the
// sampled cold responses and counts every request in the run.
func (w *serveWorkload) step(r *run, d *daemon, rate float64, reqs []request, parent int) ([]sample, []reply) {
	replies := make([]reply, len(reqs))
	samples := openLoop(rate, len(reqs), len(w.clients), func(c, i int) error {
		sp := r.spans.start("POST /solve", c+1, parent)
		rep, err := w.send(d, w.clients[c], reqs[i])
		sp.stop()
		replies[i] = rep
		return err
	})
	for i, s := range samples {
		err := s.err
		if err == nil && reqs[i].keepBody {
			err = w.verify(reqs[i], replies[i].body)
			replies[i].body = nil
		}
		r.op(err)
	}
	return samples, replies
}

func (w *serveWorkload) measure(r *run) error {
	// Each pass offers the mix at the fixed rate, then sends it again from
	// every connection, each sending its next request when its last
	// returns. Every pass sends the same requests, so each request's
	// latency and the closed loop's time are taken over the passes.
	times, k := passes(r.budget, func() []time.Duration {
		samples, _ := w.step(r, w.daemon, baseRate, w.requests(1), -1)
		out := make([]time.Duration, 0, servePass+1)
		for _, s := range samples {
			out = append(out, s.latency())
		}
		samples, _ = w.step(r, w.daemon, math.Inf(1), w.requests(1), -1)
		var end time.Duration
		for _, s := range samples {
			end = max(end, s.done)
		}
		return append(out, end)
	})
	lat, closed := times[:servePass], times[servePass]
	r.setQuantile("p50_ms", lat, 0.50, time.Millisecond)
	r.setQuantile("p90_ms", lat, 0.90, time.Millisecond)
	r.set("throughput_per_s", servePass/closed.Seconds(), servePass*k)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveLayerBodies is the fixed number of request bodies the codec
// layers are timed on; serveHitAllocs the number of hits allocations
// are counted over; serveLayerUses the number of uses of the mix each
// traced-run step offers (six seconds at baseRate).
const (
	serveLayerBodies = 64
	serveHitAllocs   = 64
	serveLayerUses   = 3
)

func (w *serveWorkload) layers(r *run) error {
	if err := w.codecLayers(r); err != nil {
		return err
	}
	allocs, err := w.hitAllocs()
	if err != nil {
		return err
	}
	r.set("serve.hit_allocs", float64(allocs), serveHitAllocs)

	reqs := w.requests(serveLayerUses)
	base := r.spans.start("serve step untraced", 0, -1)
	samples, replies := w.step(r, w.daemon, baseRate, reqs, base.id)
	base.stop()
	untraced := summarize(samples)
	// Hits and misses timed apart, from the send, so neither depends on
	// the assumed hit share or on waiting behind the other.
	var hitLat, missLat []time.Duration
	for i, s := range samples {
		switch {
		case s.err != nil:
		case replies[i].hit:
			hitLat = append(hitLat, s.done-s.sent)
		default:
			missLat = append(missLat, s.done-s.sent)
		}
	}
	r.setQuantile("serve.hit_ms_p50", hitLat, 0.50, time.Millisecond)
	r.setQuantile("serve.miss_ms_p50", missLat, 0.50, time.Millisecond)
	r.setQuantile("serve.miss_ms_p90", missLat, 0.90, time.Millisecond)

	// The same traffic against a daemon with request tracing on, which
	// reports each request's stages in X-Transched-Timing.
	tracer := obs.NewReqTracer(obs.ReqTracerConfig{Recent: len(reqs), Trace: r.chrome, Name: "serve-mixed traced daemon"})
	traced, err := startDaemon(serve.Config{Registry: obs.NewRegistry(), Tracer: tracer})
	if err != nil {
		return err
	}
	defer traced.close()
	primed, err := w.prime(traced)
	if err != nil {
		return err
	}
	for k := range primed {
		if !bytes.Equal(primed[k], w.hotBody[k]) {
			r.op(fmt.Errorf("traced daemon answers hot key %d with different bytes", k))
		}
	}
	sp := r.spans.start("serve step traced", 0, -1)
	samples, replies = w.step(r, traced, baseRate, w.requests(serveLayerUses), sp.id)
	sp.stop()
	tracedStats := summarize(samples)

	stages := map[string][]time.Duration{}
	var netLat []time.Duration
	hits, answered := 0, 0
	for i, s := range samples {
		if s.err != nil {
			continue
		}
		answered++
		if replies[i].hit {
			hits++
		}
		timing := parseTiming(replies[i].timing)
		for _, st := range serveStages {
			if d, ok := timing[st]; ok {
				stages[st] = append(stages[st], d)
			}
		}
		netLat = append(netLat, s.done-s.sent-timing["total"])
	}
	for _, st := range serveStages {
		r.setQuantile("serve.stage."+st+"_ms_p50", stages[st], 0.50, time.Millisecond)
		r.setQuantile("serve.stage."+st+"_ms_p99", stages[st], 0.99, time.Millisecond)
	}
	r.setQuantile("serve.net_ms_p50", netLat, 0.5, time.Millisecond)
	if answered > 0 {
		r.set("serve.hit_rate", float64(hits)/float64(answered), answered)
	}
	r.set("serve.gen_late_ms_p99", ms(untraced.lateP99), untraced.n)
	r.set("serve.trace_overhead_ms_p50", ms(tracedStats.p50-untraced.p50), tracedStats.n)

	// The serving tier's accounting identity: the stage spans cover the
	// request.
	var stageSum, total float64
	for _, s := range tracer.Snapshot().Recent {
		total += s.TotalSeconds
		for _, st := range s.Stages {
			stageSum += st.Seconds
		}
	}
	coverage := 0.0
	if total > 0 {
		coverage = stageSum / total
	}
	r.set("serve.stage_coverage", coverage, len(samples))
	if coverage < 0.95 {
		r.fail(fmt.Errorf("reconcile serve stages: stage spans cover %.3f of request time (want >= 0.95)", coverage))
	}
	return nil
}

// codecLayers times the trace codec and the content digest on the
// request bodies.
func (w *serveWorkload) codecLayers(r *run) error {
	sp := r.spans.start("serve codec", 0, -1)
	defer sp.stop()
	for i := 0; i < serveLayerBodies && i < len(w.bodies); i++ {
		var tr *trace.Trace
		var err error
		r.spans.timed("trace.Read", 0, sp.id, func() { tr, err = trace.Read(strings.NewReader(w.bodies[i])) })
		if err != nil {
			return err
		}
		r.spans.timed("trace.Write", 0, sp.id, func() { err = trace.Write(io.Discard, tr) })
		r.op(err)
		r.spans.timed("serve.Digest", 0, sp.id, func() {
			_, err = serve.Digest(tr, transched.SolveOptions{CapacityMultiplier: 1.5})
		})
		r.op(err)
	}
	r.setQuantile("trace.read_us_p50", r.spans.durations("trace.Read"), 0.5, time.Microsecond)
	r.setQuantile("trace.write_us_p50", r.spans.durations("trace.Write"), 0.5, time.Microsecond)
	r.setQuantile("serve.digest_us_p50", r.spans.durations("serve.Digest"), 0.5, time.Microsecond)
	return nil
}

// hitAllocs returns the heap allocations one cache hit makes through
// the daemon's handler, requests and recorders built beforehand.
func (w *serveWorkload) hitAllocs() (uint64, error) {
	h := w.daemon.srv.Handler()
	body := w.bodies[w.hot[0]]
	reqs := make([]*http.Request, 2*serveHitAllocs)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/solve?capacity=1.5", strings.NewReader(body))
		reqs[i].Header.Set("Content-Type", "text/plain")
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(len(w.hotBody[0]))
	}
	next := 0
	allocs := countAllocs(func() {
		for i := 0; i < serveHitAllocs; i++ {
			h.ServeHTTP(recs[next], reqs[next])
			next++
		}
	})
	for _, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("X-Transched-Cache") != "hit" {
			return 0, fmt.Errorf("handler answered a hot key with status %d, cache %q",
				rec.Code, rec.Header().Get("X-Transched-Cache"))
		}
	}
	return (allocs + serveHitAllocs/2) / serveHitAllocs, nil
}

// parseTiming decodes an X-Transched-Timing header ("decode;dur=0.051,
// …, total;dur=2.210", milliseconds) into durations by stage.
func parseTiming(h string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] = time.Duration(v * float64(time.Millisecond))
		}
	}
	return out
}
