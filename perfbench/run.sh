#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the arguments given, from the repository root:
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files all stay
# under .bench_build in the checkout; no module is downloaded.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
