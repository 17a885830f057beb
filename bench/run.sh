#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (its own
# module, bench/go.mod) and runs it; the benchmark then builds qosd and
# qosproxy from the same checkout. Every cache, binary and temp file stays
# under <checkout>/.bench_build, and the toolchain is told not to reach for
# the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
