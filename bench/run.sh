#!/usr/bin/env bash
# Entry point of the repo benchmark (BENCHMARK.json "command").
#
# Builds lwfagen, qserve and the harness from source into .bench_build/ at
# the root of the checkout (Go build cache included, so nothing is written
# outside the checkout), then runs the harness with the arguments given:
#
#   bash bench/run.sh --workload explore_local --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                 # whole suite, both passes, table
#   bash bench/run.sh -selfcheck      # suite twice, B within bounds of A
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bin/ ./cmd/lwfagen ./cmd/qserve
go build -C bench -o "$root/.bench_build/bin/bench" .
exec .bench_build/bin/bench "$@"
