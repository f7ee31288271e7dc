#!/usr/bin/env bash
# Builds tierbase-server, tierbase-coordinator and the generator from this
# checkout into .bench_build/, then runs the benchmark:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/" ./cmd/tierbase-server ./cmd/tierbase-coordinator >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
GOMAXPROCS=2 exec "$build/bin/perfbench" "$@"
