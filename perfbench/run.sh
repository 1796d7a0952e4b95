#!/usr/bin/env bash
# Builds the benchmark and the figure harness from the tree it sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload edge-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the run's scratch files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOTELEMETRY=off

# Go's flag package takes --name as -name.
go -C "$root/perfbench" build -o "$out/perfbench" .
go build -o "$out/figures" ./cmd/figures
exec "$out/perfbench" "$@"
