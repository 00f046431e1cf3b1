#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash benchmark/run.sh --workload hot_cached --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache, scratch files and span dumps all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/recperf" .) >&2
cd "$root"
exec "$out/recperf" "$@"
