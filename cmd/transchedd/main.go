// Command transchedd is the scheduling service daemon: it serves the
// solver portfolio over HTTP/JSON with a content-addressed result
// cache (in memory, optionally disk-backed) and admission control
// (SERVING.md).
//
// Usage:
//
//	transchedd [-addr localhost:8080] [-max-solves 8] [-queue 128]
//	           [-cache 1024] [-cache-bytes N] [-cache-dir DIR]
//	           [-timeout 30s] [-max-timeout 2m] [-drain-timeout 30s]
//	           [-request-trace] [-trace-out FILE] [-trace-sample N]
//	           [-slow-request D] [-addr-file path] [-debug] [-quiet]
//
// Endpoints: POST /solve (a JSON envelope, or a raw v1 trace body with
// ?capacity=&heuristic=&batch=&timeout_ms= query options), GET
// /healthz, /readyz and /metrics; -debug adds /debug/vars and
// /debug/pprof/. Request tracing is on by default (-request-trace):
// every /solve carries an X-Transched-Trace ID and an
// X-Transched-Timing per-stage breakdown, /debug/requests shows the
// active, slowest and most recent requests (OBSERVABILITY.md), and
// -trace-out FILE writes sampled spans as Chrome trace-event JSON on
// shutdown. On SIGTERM or SIGINT the daemon drains gracefully:
// readiness turns 503, new solves are shed, queued waiters are shed,
// in-flight solves finish, and -drain-timeout is the hard cutoff.
//
// A quick session:
//
//	tracegen -app HF -out traces/hf -processes 1
//	transchedd -addr localhost:8080 -cache-dir /var/cache/transchedd &
//	curl --data-binary @traces/hf/hf.p000.trace \
//	    'http://localhost:8080/solve?heuristic=OOLCMR&capacity=1.5'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"transched/internal/obs"
	"transched/internal/serve"
	"transched/internal/serve/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "transchedd:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until ctx is cancelled (the signal
// handler's job in main); it is the in-process entry the tests drive.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("transchedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "localhost:8080", "address to serve on (use ':0' for an ephemeral port)")
		addrFile   = fs.String("addr-file", "", "write the bound address to this file once listening (for ':0' scripting)")
		maxSolves  = fs.Int("max-solves", 0, "concurrent solve limit (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 128, "bounded wait queue length, negative for none; beyond it requests are shed with 429")
		cacheN     = fs.Int("cache", 1024, "result cache entries (negative disables caching)")
		cacheBytes = fs.Int64("cache-bytes", 0, "result cache byte budget (0 = 256MiB, negative disables the byte bound)")
		cacheDir   = fs.String("cache-dir", "", "disk-backed result store directory; the cache survives restarts")
		timeout    = fs.Duration("timeout", 30*time.Second, "default per-request solve deadline")
		maxTimeout = fs.Duration("max-timeout", 2*time.Minute, "cap on request-supplied timeout_ms")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "hard cutoff for the graceful drain on SIGTERM/SIGINT")
		debug      = fs.Bool("debug", false, "mount /debug/vars and /debug/pprof/ on the service port")
		quiet      = fs.Bool("quiet", false, "disable request logging")
		reqTrace   = fs.Bool("request-trace", true, "per-request stage tracing: /debug/requests, X-Transched-Timing, serve_stage_seconds_* metrics")
		traceOut   = fs.String("trace-out", "", "write sampled request spans as Chrome trace-event JSON to this file on shutdown (implies -request-trace)")
		traceSamp  = fs.Int("trace-sample", 1, "export every Nth traced request to -trace-out (1 = all)")
		slowReq    = fs.Duration("slow-request", 0, "log the full stage breakdown of any request slower than this (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	}

	// One tracer per process; the Chrome export accumulates sampled
	// requests and is written once the drain finishes, so the file is
	// complete and Perfetto-loadable.
	var tracer *obs.ReqTracer
	var export *obs.Trace
	if *reqTrace || *traceOut != "" {
		if *traceOut != "" {
			export = obs.NewTrace()
		}
		tracer = obs.NewReqTracer(obs.ReqTracerConfig{
			Registry:      obs.Default(),
			Trace:         export,
			SampleEvery:   *traceSamp,
			SlowThreshold: *slowReq,
			Logger:        logger,
		})
		if *traceOut != "" {
			defer func() {
				if err := export.WriteFile(*traceOut); err != nil {
					fmt.Fprintf(stderr, "transchedd: writing -trace-out: %v\n", err)
				} else {
					fmt.Fprintf(stderr, "transchedd: wrote %d trace events to %s\n", export.Len(), *traceOut)
				}
			}()
		}
	}
	onListen := func(a net.Addr) {
		fmt.Fprintf(stderr, "transchedd: listening on http://%s\n", a)
		if *addrFile != "" {
			if err := os.WriteFile(*addrFile, []byte(a.String()), 0o644); err != nil {
				fmt.Fprintf(stderr, "transchedd: writing -addr-file: %v\n", err)
			}
		}
	}

	var st *store.Store
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			return err
		}
		defer st.Close()
	}
	srv := serve.New(serve.Config{
		MaxConcurrent:   *maxSolves,
		MaxQueue:        *queue,
		CacheEntries:    *cacheN,
		CacheBytes:      *cacheBytes,
		Store:           st,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		Tracer:          tracer,
		Logger:          logger,
		EnableProfiling: *debug,
	})
	return srv.ListenAndServe(ctx, *addr, *drain, onListen)
}
