#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload jobs-assess --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build and module caches and the benchmark's
# scratch files all stay under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
