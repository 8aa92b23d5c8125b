#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — binary, Go build cache, module cache —
# goes under .bench_build/ at the root of the checkout, so a run reads
# and writes only inside the checkout. Run it from the checkout root:
#
#   bash benchmark/run.sh --workload contact-steady --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The benchmark is a module of its own that imports the repository's
# module one directory up; without it the build fails and nothing runs.
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
