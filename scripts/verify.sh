#!/bin/sh
# Tier-1 verification: build everything, vet everything (including the
# repo's own transchedlint analyzers), check gofmt cleanliness, build,
# vet and test the benchmark module (bench/), run the full test suite
# under the race detector with shuffled test order, and finish with one
# short traced run of every benchmark workload.
# The experiment drivers fan work out across goroutines
# (internal/experiments), and internal/rts accepts concurrent
# submissions, so -race is part of the baseline gate, not an optional
# extra.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build ./...
go vet ./...

# Repo-specific invariants: determinism, memory-safety and telemetry
# analyzers (LINTING.md) run over every package through the vet driver,
# with cross-package purity facts flowing between units via vetx files.
# An un-annotated finding fails verification.
go build -o "$tmp/transchedlint" ./cmd/transchedlint

# The deployed tool must carry the full analyzer suite, in registration
# order — a build that silently dropped one (or reordered purity after
# its consumers) would pass vet vacuously.
"$tmp/transchedlint" -list | awk '{print $1}' > "$tmp/analyzers.txt"
printf '%s\n' purity detclock detrand maporder slotwrite \
    gaugecas nilnoop spanend metricname allowform > "$tmp/analyzers.want"
if ! cmp -s "$tmp/analyzers.txt" "$tmp/analyzers.want"; then
    echo "verify: transchedlint -list does not match the expected 10-analyzer suite:" >&2
    diff "$tmp/analyzers.want" "$tmp/analyzers.txt" >&2 || true
    exit 1
fi

# The duration-model package produces golden-digest-pinned coefficients,
# so it must sit under detclock's jurisdiction: a wall-clock read there
# would be a silent determinism hole the layout test only catches if the
# classification itself stays put.
if ! grep -q '"transched/internal/model": true' internal/lint/detclock.go; then
    echo "verify: internal/model is not classified in lint.DetclockPackages" >&2
    exit 1
fi

TRANSCHEDLINT_TIMING="$tmp/lint-timing.txt" \
    go vet -vettool="$tmp/transchedlint" ./...

# Per-analyzer wall time across the whole vet run, so a pathologically
# slow analyzer shows up here instead of as a mystery CI slowdown.
if [ -s "$tmp/lint-timing.txt" ]; then
    echo "verify: transchedlint wall time by analyzer (ms):"
    awk '{sum[$1] += $2} END {for (a in sum) printf "  %-11s %8.1f\n", a, sum[a]/1e6}' \
        "$tmp/lint-timing.txt" | sort -k2 -rn
fi

# The benchmark (bench/) is a module of its own, outside ./...: build,
# vet, lint and unit-test it too, so a change to any symbol it imports
# from the repository fails here rather than in the next benchmark run.
(
    cd bench
    go build ./...
    go vet ./...
    go vet -vettool="$tmp/transchedlint" ./...
    go test ./...
)

# gofmt cleanliness: a non-empty listing is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "verify: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# The race detector multiplies the MILP-heavy Fig 7 test's runtime by
# ~10x, so the per-package timeout is raised above go test's 10m default.
# -shuffle=on randomises test order to flush inter-test state
# dependencies; failures print the shuffle seed for replay.
go test -race -shuffle=on -timeout 45m ./...

# The optimized simulation kernel's differential suite (byte-identical
# schedules vs the straightforward reference kernel, reference_test.go)
# gets a second, focused run: state pooling and the parallel portfolios
# make this the code most exposed to races, and -count=2 re-runs it on
# warm pools, which a single shuffled pass may not cover.
go test -race -shuffle=on -count=2 -run 'Differential|TrialMakespan|CloneCopyOnWrite|MemoryInUse' \
    ./internal/simulate/

# The warm-start LP/MILP differential suite (warm solver vs the
# preserved two-phase reference, rewritten branch and bound vs the
# seed-era solver, and bit-identical parallel search at every worker
# count) gets the same focused treatment: scratch reuse across
# Snapshot/Restore and the round-parallel expansion are the newest
# race-exposed surfaces.
go test -race -shuffle=on -count=1 \
    -run 'WarmStart|Resolve|MILPDifferential|MILPWorkersDeterminism|WindowedWorkersDeterminism' \
    ./internal/lp/ ./internal/milp/ ./internal/lpsched/

# The event-sweep feasibility checker's differential suite (verdict,
# error and PeakMemory bits vs the preserved pairwise reference,
# reference_test.go) gets the same focused treatment.
go test -race -shuffle=on -count=2 -run 'Differential|FuzzScheduleValidate' \
    ./internal/core/

# Request tracing can never alter what the serving tier returns: the
# traced-vs-untraced byte-identity tests get a second, focused run
# (tracing off must also mean zero clock reads — the same no-op
# contract the nil-handle telemetry above honours).
go test -race -count=1 -run 'ByteIdentical|NilTracerUniversalNoOp' \
    ./internal/serve/ ./internal/obs/

# Determinism byte-compare with telemetry enabled: a serial and a
# parallel sweep, both with trace export on, must print identical
# results (OBSERVABILITY.md) — instrumentation can never silently
# perturb the PR 1 bit-identical guarantee. stderr (where the trace
# writer reports) is left out of the comparison by design. Fig 9 runs
# each trace whole and Fig 13 in submission batches: the two shapes of
# plan the sweep shares across capacities.
for fig in 9 13; do
    go run ./cmd/experiments -fig "$fig" -processes 2 -tasks 24 -workers 1 \
        -trace-out "$tmp/serial-trace.json" > "$tmp/serial.out"
    go run ./cmd/experiments -fig "$fig" -processes 2 -tasks 24 \
        -trace-out "$tmp/parallel-trace.json" > "$tmp/parallel.out"
    if ! cmp -s "$tmp/serial.out" "$tmp/parallel.out"; then
        echo "verify: traced Fig $fig output differs between -workers 1 and parallel" >&2
        diff "$tmp/serial.out" "$tmp/parallel.out" >&2 || true
        exit 1
    fi
done

# One short traced run of every benchmark workload: it exits 1 unless
# every output check passes and every workload's layer spans reconcile
# with its end-to-end times (correct: true). Timings are not judged.
if ! bash bench/run.sh --workload all --seconds 1 --trace 1 > "$tmp/bench.out" 2>&1; then
    tail -n 40 "$tmp/bench.out" >&2
    echo "verify: traced benchmark smoke failed (correct: false or a build error)" >&2
    exit 1
fi
echo "verify: ok (build, vet, transchedlint, gofmt, bench module, race+shuffle tests, nil-tracer byte-identity, traced determinism byte-compare, traced benchmark smoke)"
