#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's arguments:
#
#   bash benchmark/run.sh --workload songs_serve --seed 1 --seconds 15 --trace 0
#
# The binary and Go's build cache go to <checkout>/.bench_build, so the build
# writes nothing outside the checkout. The benchmark is a module of its own
# (benchmark/go.mod) that imports the falcon module one directory up; where
# that module is missing the build fails and this script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -buildvcs=false -o "$build/falcon-benchmark" . >&2
cd "$root"
exec "$build/falcon-benchmark" "$@"
