#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash benchmark/run.sh --workload warm_hit --seed 1 --seconds 10 --trace 0
# The binary, the go build cache and every file a run writes stay under
# .bench_build in the checkout.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/tkij-benchmark" .)
exec "$out/tkij-benchmark" -dir "$out/run" "$@"
