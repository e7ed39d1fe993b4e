#!/bin/sh
# Builds the benchmark program from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload serve-mixed --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (binary, build cache, temp files) stays
# under .bench_build/ in the checkout, and the go command is kept off the
# network: the program is a standard-library-only module whose one
# dependency is the repository itself (bench/go.mod replaces it with ../).
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
