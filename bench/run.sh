#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build/ at the root of
# the checkout (build cache included, so nothing is written outside the
# checkout) and runs it with the given arguments. BENCHMARK.json's command.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
go build -C bench -o "$root/.bench_build/tfbench" .
exec "$root/.bench_build/tfbench" "$@"
