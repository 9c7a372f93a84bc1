#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: the Go build cache, the binary, snapshots and
# span files. Arguments are passed through:
#
#   benchmark/run.sh --workload serve-point --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .) >&2
cd "$root"
exec "$out/benchmark" "$@"
