#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark driver from
# source into .bench_build/ (Go build cache included, so nothing is written
# outside the checkout) and runs it from the checkout root.
#
#   bash bench/run.sh --workload cold-big-regions --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -all -runs 10 -out bench/out/a.json
#   bash bench/run.sh -compare bench/out/a.json bench/out/b.json
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$root/.bench_build/bin"
(cd bench && go build -o "$root/.bench_build/bin/bpbench" .)
exec "$root/.bench_build/bin/bpbench" "$@"
