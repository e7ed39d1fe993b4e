package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"transched"
	"transched/internal/obs"
	"transched/internal/serve/store"
)

// Config sizes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// MaxConcurrent is the number of solves allowed to run at once
	// (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue is the number of requests allowed to wait for a solver
	// slot before new arrivals are shed with 429 (default 128; negative
	// means no queue — shed as soon as every slot is busy).
	MaxQueue int
	// CacheEntries bounds the result LRU by entry count (default 1024;
	// negative disables caching, in-flight deduplication still applies).
	CacheEntries int
	// CacheBytes bounds the result LRU by total body bytes (default
	// 256 MiB; negative disables the byte bound). Both bounds apply:
	// eviction runs until the cache satisfies whichever is tighter. An
	// entry larger than the whole budget is served but never stored.
	CacheBytes int64
	// Store, when non-nil, is the disk tier behind the memory LRU:
	// computed responses are written through and memory misses consult
	// it, so a restarted daemon keeps its hit rate (SERVING.md). The
	// caller owns the store and its Close.
	Store *store.Store
	// DefaultTimeout is the per-request solve deadline when the request
	// does not carry timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps a request-supplied deadline (default 2m).
	MaxTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 (default 1s, rounded up
	// to whole seconds on the wire).
	RetryAfter time.Duration
	// Registry receives the serve_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Tracer, when non-nil, enables request tracing: per-stage spans,
	// the X-Transched-Trace/X-Transched-Timing response headers, the
	// serve_stage_seconds_* histograms and the /debug/requests page.
	// Nil disables all of it — zero clock reads, zero allocations, and
	// response bodies byte-identical either way (OBSERVABILITY.md).
	Tracer *obs.ReqTracer
	// Logger, when non-nil, gets one record per computed solve and per
	// shed request. Nil disables logging.
	Logger *slog.Logger
	// EnableProfiling mounts /debug/vars and /debug/pprof/* on the
	// handler (off by default: profiling is opt-in, OBSERVABILITY.md).
	EnableProfiling bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// Server is the scheduling service: it accepts trace instances over
// HTTP/JSON, solves them through the transched facade under admission
// control, and caches results by content address in memory and, when
// configured, on disk. Use New, mount Handler, and Drain on shutdown.
type Server struct {
	cfg    Config
	cache  *cache
	adm    *admission
	tracer *obs.ReqTracer // nil when tracing is off

	// mu orders request admission against drain: once draining, no new
	// request enters, and Drain's wait covers everything that did.
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// onSolve, when non-nil, runs at the start of every computed solve,
	// after the solver slot is acquired — a test seam for holding a
	// solve in flight while drain/overload behaviour is asserted.
	onSolve func()

	requests     *obs.Counter
	hits         *obs.Counter
	aliasHits    *obs.Counter
	misses       *obs.Counter
	storeHits    *obs.Counter
	storeMisses  *obs.Counter
	shed         *obs.Counter
	timeouts     *obs.Counter
	errs         *obs.Counter
	cacheEntries *obs.Gauge
	cacheBytes   *obs.Gauge
	storeEntries *obs.Gauge
	storeBytes   *obs.Gauge
	reqHist      *obs.Histogram
	solveHist    *obs.Histogram
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:          cfg,
		tracer:       cfg.Tracer,
		requests:     reg.Counter("serve_requests_total"),
		hits:         reg.Counter("serve_cache_hits_total"),
		aliasHits:    reg.Counter("serve_cache_alias_hits_total"),
		misses:       reg.Counter("serve_cache_misses_total"),
		storeHits:    reg.Counter("serve_store_hits_total"),
		storeMisses:  reg.Counter("serve_store_misses_total"),
		shed:         reg.Counter("serve_shed_total"),
		timeouts:     reg.Counter("serve_timeouts_total"),
		errs:         reg.Counter("serve_errors_total"),
		cacheEntries: reg.Gauge("serve_cache_entries"),
		cacheBytes:   reg.Gauge("serve_cache_bytes"),
		storeEntries: reg.Gauge("serve_store_entries"),
		storeBytes:   reg.Gauge("serve_store_bytes"),
		reqHist:      reg.Histogram("serve_request_seconds", obs.DefaultBuckets()),
		solveHist:    reg.Histogram("serve_solve_seconds", obs.DefaultBuckets()),
	}
	s.cache = newCache(cfg.CacheEntries, cfg.CacheBytes, cfg.Store,
		reg.Counter("serve_store_put_errors_total"))
	s.adm = newAdmission(cfg.MaxConcurrent, cfg.MaxQueue,
		reg.Gauge("serve_queue_depth"), reg.Gauge("serve_inflight_solves"))
	return s
}

// Handler returns the service surface:
//
//	POST /solve    solve a trace instance (SERVING.md)
//	GET  /healthz  liveness: 200 while the process runs
//	GET  /readyz   readiness: 200, or 503 once draining
//	GET  /metrics  registry snapshot (plain text; ?format=prometheus
//	               for the Prometheus exposition)
//
// With a Tracer, /debug/requests serves the request-trace rings; with
// EnableProfiling, /debug/vars and /debug/pprof/* are mounted too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("/metrics", obs.MetricsHandler(s.cfg.Registry))
	if s.tracer != nil {
		mux.Handle("/debug/requests", obs.RequestsHandler(s.tracer))
	}
	if s.cfg.EnableProfiling {
		obs.PublishExpvar()
		obs.MountProfiling(mux)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "transchedd scheduling service\n\nPOST /solve\nGET  /healthz\nGET  /readyz\nGET  /metrics\n")
	})
	return mux
}

// enter registers a request against drain; false means the server no
// longer accepts work.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BeginDrain stops admitting new solve requests — /readyz turns 503 so
// load balancers route away, new /solve requests are shed with 503 +
// Retry-After — and promptly sheds every caller already parked in the
// admission wait queue the same way. In-flight solves (slots held) keep
// running; idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.adm.BeginDrain()
}

// Drain performs the graceful shutdown sequence: stop accepting and
// shed queued waiters (as BeginDrain), then wait for in-flight solves.
// It returns nil when the last one finishes, or ctx.Err() at the hard
// cutoff — at which point the caller should Close its listener
// regardless.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) retryAfterSeconds() string {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeJSONError emits the error envelope with the given status.
func (s *Server) writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(errorBody{Error: msg})
	w.Write(body)
}

// shedResponse is the overload reply: status + Retry-After + envelope.
func (s *Server) shedResponse(w http.ResponseWriter, status int, msg string) {
	s.shed.Inc()
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	s.writeJSONError(w, status, msg)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn("serve: request shed", "status", status, "reason", msg)
	}
}

// solveOne is the admission-free inner solve: portfolio (or heuristic,
// or rts-batched) solve plus deterministic marshal, so equal requests
// get byte-identical bodies. rt receives the solve and encode spans
// (nil when tracing is off).
func (s *Server) solveOne(ctx context.Context, p *parsedRequest, rt *obs.ReqTrace) ([]byte, error) {
	if s.onSolve != nil {
		s.onSolve()
	}
	solveStart := time.Now()
	st := rt.StartStage(obs.StageSolve)
	res, err := transched.Solve(ctx, p.trace, p.opts)
	st.End()
	s.solveHist.Observe(time.Since(solveStart).Seconds())
	if err != nil {
		return nil, err
	}
	et := rt.StartStage(obs.StageEncode)
	body, err := json.Marshal(buildResponse(res))
	et.End()
	return body, err
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()
	if r.Method != http.MethodPost {
		s.errs.Inc()
		w.Header().Set("Allow", http.MethodPost)
		s.writeJSONError(w, http.StatusMethodNotAllowed, "POST a trace to /solve")
		return
	}
	if !s.enter() {
		s.shedResponse(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.inflight.Done()

	// The request trace: continue a client-supplied trace when the
	// header carries one, mint a root otherwise. rt is nil with tracing
	// off, and every use below is a nil-safe no-op.
	var parent obs.SpanContext
	if s.tracer != nil {
		parent, _ = obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	}
	rt := s.tracer.Start("solve", parent)
	defer rt.Finish()

	// The decode span first covers reading the body and hashing it into
	// the request's alias. A repeated request is answered from the
	// alias: no parse, no digest, no deadline.
	dt := rt.StartStage(obs.StageDecode)
	raw, err := readRequest(r)
	if err != nil {
		dt.End()
		s.badRequest(w, rt, err)
		return
	}
	alias := raw.alias()
	dt.End()
	if digest, body, ok := s.cache.lookupAlias(alias, rt); ok {
		s.aliasHits.Inc()
		rt.SetDigest(digest)
		s.respond(w, rt, start, nil, digest, body, srcMemory)
		return
	}

	// On an alias miss the decode span goes on to cover the parse, the
	// digest and the deadline setup. Ending it only after WithTimeout
	// keeps the stage-accounting identity honest on sub-millisecond
	// requests, where even timer allocation shows up.
	dt = rt.StartStage(obs.StageDecode)
	p, err := parseRequest(raw)
	if err != nil {
		dt.End()
		s.badRequest(w, rt, err)
		return
	}
	rt.SetDigest(p.digest)

	timeout := s.cfg.DefaultTimeout
	if p.req.TimeoutMS > 0 {
		timeout = time.Duration(p.req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	dt.End()

	body, src, err := s.cache.Do(ctx, p.digest, rt, func() ([]byte, error) {
		qt := rt.StartStage(obs.StageQueue)
		err := s.adm.Acquire(ctx)
		qt.End()
		if err != nil {
			return nil, err
		}
		defer s.adm.Release()
		return s.solveOne(ctx, p, rt)
	})

	switch {
	case err == nil:
	case errors.Is(err, errOverloaded):
		rt.SetStatus(http.StatusTooManyRequests)
		s.shedResponse(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, errDraining):
		rt.SetStatus(http.StatusServiceUnavailable)
		s.shedResponse(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.timeouts.Inc()
		rt.SetStatus(http.StatusGatewayTimeout)
		s.writeJSONError(w, http.StatusGatewayTimeout, "solve deadline exceeded")
		return
	default:
		// The codec already rejected malformed input, so a solve error
		// here means the instance itself is unschedulable (e.g. a task
		// larger than the requested capacity).
		s.errs.Inc()
		rt.SetStatus(http.StatusUnprocessableEntity)
		s.writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.cache.addAlias(alias, p.digest, rt)
	s.respond(w, rt, start, p, p.digest, body, src)
}

// badRequest answers a request the codec rejected.
func (s *Server) badRequest(w http.ResponseWriter, rt *obs.ReqTrace, err error) {
	s.errs.Inc()
	rt.SetStatus(http.StatusBadRequest)
	s.writeJSONError(w, http.StatusBadRequest, err.Error())
}

// respond writes a 200 with body and does the hit/miss accounting. p
// is the parsed request, nil on an alias hit; it is read only to log a
// computed solve.
func (s *Server) respond(w http.ResponseWriter, rt *obs.ReqTrace, start time.Time, p *parsedRequest, digest string, body []byte, src source) {
	// The closing encode slice: hit/miss accounting plus response
	// composition (headers, the timing render) accumulate onto the
	// encode stage, so the span's tail is attributed rather than lost.
	et := rt.StartStage(obs.StageEncode)
	if src.hit() {
		s.hits.Inc()
		if src == srcStore {
			s.storeHits.Inc()
		}
	} else {
		s.misses.Inc()
		if s.cfg.Store != nil {
			s.storeMisses.Inc()
		}
		if s.cfg.Logger != nil {
			logAttrs := []any{
				"digest", digest, "app", p.trace.App, "tasks", len(p.trace.Tasks),
				"heuristic", p.opts.Heuristic, "batch", p.opts.BatchSize,
				"bytes", len(body), "seconds", time.Since(start).Seconds(),
			}
			if rt != nil {
				logAttrs = append(logAttrs, "trace", rt.Context().Trace.String())
			}
			s.cfg.Logger.Info("serve: solved", logAttrs...)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Transched-Cache", cacheHeader(src.hit()))
	w.Header().Set("X-Transched-Digest", digest)
	if rt != nil {
		rt.SetStatus(http.StatusOK)
		rt.SetCacheSource(srcName(src))
		w.Header().Set(obs.TraceHeader, rt.Context().HeaderValue())
		w.Header().Set(timingHeader, rt.TimingHeader())
	}
	// The span closes once the response is composed: the socket write
	// and gauge refreshes below are not request processing, and leaving
	// them inside the span breaks the stage-accounting identity (stage
	// sums >= 95% of the span). The deferred Finish in handleSolve stays
	// as the error-path net — Finish is idempotent.
	et.End()
	rt.Finish()
	w.Write(body)
	s.reqHist.Observe(time.Since(start).Seconds())
	s.cacheEntries.Set(float64(s.cache.Len()))
	s.cacheBytes.Set(float64(s.cache.Bytes()))
	if s.cfg.Store != nil {
		s.storeEntries.Set(float64(s.cfg.Store.Len()))
		s.storeBytes.Set(float64(s.cfg.Store.Bytes()))
	}
}

// timingHeader carries the per-stage latency breakdown on responses,
// in Server-Timing syntax ("solve;dur=1.903, ..., total;dur=2.210",
// milliseconds). The bench module's serve-mixed workload parses it to
// attribute latency.
const timingHeader = "X-Transched-Timing"

// srcName names a response source for the trace record.
func srcName(s source) string {
	switch s {
	case srcMemory:
		return "memory"
	case srcFlight:
		return "flight"
	case srcStore:
		return "store"
	default:
		return "compute"
	}
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// ListenAndServe binds addr and serves Handler until ctx is cancelled,
// then runs the drain sequence: stop accepting, shed queued waiters,
// finish in-flight requests, hard cutoff after drainTimeout. The bound
// address is reported through onListen (for ":0" smoke setups); pass
// nil to skip.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration, onListen func(net.Addr)) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(lis.Addr())
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if drainTimeout <= 0 {
		drainTimeout = 30 * time.Second
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	s.BeginDrain()
	// http.Server.Shutdown stops accepting and waits for active
	// requests; pairing it with Drain covers handlers that have entered
	// but not yet registered with the connection tracker.
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close() // hard cutoff
		return err
	}
	return s.Drain(drainCtx)
}
