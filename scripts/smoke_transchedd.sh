#!/bin/sh
# Smoke test for the transchedd scheduling daemon (SERVING.md): boot it
# on an ephemeral port, solve a generated trace over HTTP, and check
# the answer against the serial cmd/transched CLI on the same instance.
# Then exercise the cache (second identical request must be a
# byte-identical hit), the graceful drain (SIGTERM exits 0), the disk
# store across a restart, and request tracing.
#
# Makespans are compared at 6 significant digits — the CLI prints
# %14.6g while the daemon returns the full float64 in JSON, so both
# sides are renormalised through the same %.6g format.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
    echo "smoke_transchedd: FAIL: $*" >&2
    exit 1
}

go build -o "$tmp/transched" ./cmd/transched
go build -o "$tmp/transchedd" ./cmd/transchedd
go build -o "$tmp/tracegen" ./cmd/tracegen
go build -o "$tmp/scrapecheck" ./scripts/scrapecheck

"$tmp/tracegen" -app HF -out "$tmp/traces" -processes 1 -min 40 -max 40
trace_file=$(ls "$tmp/traces"/*.trace | head -n 1)
[ -s "$trace_file" ] || fail "tracegen produced no trace"

# The serial reference answer, via the CLI (also covers -trace - stdin).
cli_out=$("$tmp/transched" -trace - -capacity 1.5 -heuristic OOLCMR < "$trace_file")
cli_mk=$(printf '%s\n' "$cli_out" | awk '$1 == "OOLCMR" { printf "%.6g", $2 + 0 }')
[ -n "$cli_mk" ] || fail "no OOLCMR makespan in CLI output: $cli_out"

# boot_daemon <addr-file> [extra flags...]: start transchedd on an
# ephemeral port; sets $pid and $addr (globals — no subshell, so the
# daemon does not hold a command-substitution pipe open).
boot_daemon() {
    addr_file=$1
    shift
    rm -f "$addr_file"
    "$tmp/transchedd" -addr 127.0.0.1:0 -addr-file "$addr_file" -quiet "$@" \
        > /dev/null 2>> "$tmp/daemon.log" &
    pid=$!
    i=0
    while [ ! -s "$addr_file" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "daemon never wrote $addr_file (log: $(cat "$tmp/daemon.log"))"
        kill -0 "$pid" 2>/dev/null || fail "daemon died on startup (log: $(cat "$tmp/daemon.log"))"
        sleep 0.1
    done
    addr=$(cat "$addr_file")
}

# Boot the daemon on an ephemeral port, with the disk-backed store so
# the warm-restart section below can reuse it.
boot_daemon "$tmp/addr" -cache-dir "$tmp/cachedir"

curl -sf "http://$addr/healthz" > /dev/null || fail "/healthz"
curl -sf "http://$addr/readyz" > /dev/null || fail "/readyz"

# First solve: a cache miss whose makespan matches the CLI.
curl -sf -D "$tmp/hdr1" --data-binary @"$trace_file" \
    "http://$addr/solve?heuristic=OOLCMR&capacity=1.5" > "$tmp/resp1" \
    || fail "POST /solve"
grep -qi '^x-transched-cache: miss' "$tmp/hdr1" || fail "first request was not a miss"
daemon_mk=$(jq -r '.best.makespan' < "$tmp/resp1" | awk '{ printf "%.6g", $1 + 0 }')
if [ "$daemon_mk" != "$cli_mk" ]; then
    fail "daemon makespan $daemon_mk != CLI makespan $cli_mk"
fi

# Second identical solve: a hit, byte-identical to the miss.
curl -sf -D "$tmp/hdr2" --data-binary @"$trace_file" \
    "http://$addr/solve?heuristic=OOLCMR&capacity=1.5" > "$tmp/resp2" \
    || fail "second POST /solve"
grep -qi '^x-transched-cache: hit' "$tmp/hdr2" || fail "second request was not a hit"
cmp -s "$tmp/resp1" "$tmp/resp2" || fail "cache hit is not byte-identical to the miss"

# The counters agree: one miss, one hit.
curl -sf "http://$addr/metrics" > "$tmp/metrics" || fail "/metrics"
grep -q '^serve_cache_hits_total 1$' "$tmp/metrics" || fail "hit counter: $(grep serve_cache "$tmp/metrics")"
grep -q '^serve_cache_misses_total 1$' "$tmp/metrics" || fail "miss counter: $(grep serve_cache "$tmp/metrics")"

# The Prometheus rendering of the same registry must parse as text
# exposition and carry the serving counters plus the per-stage
# latency histograms request tracing adds.
"$tmp/scrapecheck" -metrics "http://$addr/metrics?format=prometheus" \
    -require serve_requests_total,serve_cache_hits_total,serve_stage_seconds_solve \
    > /dev/null || fail "prometheus scrape does not validate"

# Request tracing: the miss carried a trace ID, and /debug/requests
# must show that request with its stage spans accounting for >= 95%
# of the request's span — the OBSERVABILITY.md accounting identity.
trace_id=$(tr -d '\r' < "$tmp/hdr1" | awk 'tolower($1)=="x-transched-trace:" { split($2, a, "-"); print a[1] }')
[ -n "$trace_id" ] || fail "miss response has no X-Transched-Trace header"
tr -d '\r' < "$tmp/hdr1" | grep -qi '^x-transched-timing: .*total;dur=' \
    || fail "miss response has no X-Transched-Timing breakdown"
"$tmp/scrapecheck" -requests "http://$addr/debug/requests?format=json" \
    -trace "$trace_id" -min-coverage 0.95 \
    > /dev/null || fail "/debug/requests misses trace $trace_id with coverage >= 0.95"

# Graceful drain: SIGTERM must exit 0 and release the port.
kill -TERM "$pid"
if ! wait "$pid"; then
    fail "daemon exited non-zero on SIGTERM (log: $(cat "$tmp/daemon.log"))"
fi
pid=""
curl -sf --max-time 2 "http://$addr/healthz" > /dev/null 2>&1 \
    && fail "daemon still serving after SIGTERM"

# Warm restart: a new daemon over the same -cache-dir must answer the
# instance it never computed from the disk store — a hit on the very
# first request of the new life, byte-identical to the original miss.
boot_daemon "$tmp/addr2" -cache-dir "$tmp/cachedir"
curl -sf -D "$tmp/hdr3" --data-binary @"$trace_file" \
    "http://$addr/solve?heuristic=OOLCMR&capacity=1.5" > "$tmp/resp3" \
    || fail "POST /solve after restart"
grep -qi '^x-transched-cache: hit' "$tmp/hdr3" || fail "restart lost the disk cache (first request was not a hit)"
cmp -s "$tmp/resp1" "$tmp/resp3" || fail "disk-served response differs from the original computation"
kill -TERM "$pid"
wait "$pid" || fail "restarted daemon exited non-zero on SIGTERM"
pid=""

# Queued-waiter shedding at drain is covered in-process by
# TestServeDrainShedsQueuedWaiters (internal/serve), which holds a solve
# in flight through a test seam; a script cannot park a request in the
# admission queue deterministically.

# A client-supplied trace: a request carrying its own X-Transched-Trace
# must be answered under the same trace ID, /debug/requests must show
# it with its stages covering >= 95% of its span, and -trace-out must
# write the span, under that ID, as a Chrome trace export on shutdown.
boot_daemon "$tmp/addr4" -trace-out "$tmp/reqtrace.json"
client_trace=0123456789abcdef0123456789abcdef
curl -sf -D "$tmp/hdr4" -H "X-Transched-Trace: $client_trace-00000000000000a1" \
    --data-binary @"$trace_file" \
    "http://$addr/solve?heuristic=OOLCMR&capacity=1.5" > "$tmp/resp4" \
    || fail "traced POST /solve"
cmp -s "$tmp/resp1" "$tmp/resp4" || fail "traced response differs from the first solve"
got_trace=$(tr -d '\r' < "$tmp/hdr4" | awk 'tolower($1)=="x-transched-trace:" { split($2, a, "-"); print a[1] }')
[ "$got_trace" = "$client_trace" ] || fail "response trace ID $got_trace, want the client's $client_trace"
"$tmp/scrapecheck" -requests "http://$addr/debug/requests?format=json" \
    -trace "$client_trace" -min-coverage 0.95 > /dev/null \
    || fail "/debug/requests misses trace $client_trace with coverage >= 0.95"
kill -TERM "$pid"
wait "$pid" || fail "traced daemon exited non-zero on SIGTERM"
pid=""
[ -s "$tmp/reqtrace.json" ] || fail "-trace-out wrote no Chrome export"
jq -e '.traceEvents | length > 0' "$tmp/reqtrace.json" > /dev/null \
    || fail "-trace-out export has no events"
grep -q "$client_trace" "$tmp/reqtrace.json" || fail "-trace-out export misses trace $client_trace"

echo "smoke_transchedd: ok (makespan $daemon_mk matches CLI, cache hit byte-identical, warm restart served from disk, client trace ID continued with stage coverage >= 0.95 and a Chrome export, prometheus scrape valid, exits clean)"
