#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it with the arguments given. Everything the build and
# the run write — Go's build cache, temporary files, the daemon workload's
# state directory, the span files — stays under .bench_build, so a run
# touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its own settings and counters
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/fobs-bench" .)
exec "$build/fobs-bench" "$@"
