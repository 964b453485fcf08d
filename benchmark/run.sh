#!/usr/bin/env bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout this script sits in: the Go build cache and the binary
# go under .bench_build/ at the root of the checkout, span files of traced
# runs under benchmark/out/.
#
#   bash benchmark/run.sh --workload query_hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/icbtc-benchmark" .) >&2
cd "$root"
exec "$build/icbtc-benchmark" "$@"
