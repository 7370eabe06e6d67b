#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build at the root of
# the checkout and runs it with the given arguments. The Go build cache and
# every temporary file (WAL directories included) stay inside .bench_build,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/qubench" .) 1>&2
exec "$build/qubench" "$@"
