#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments, e.g.
#   bash bench/perf/run.sh --workload ptk-scale --seed 1 --seconds 10 --trace 0
#   bash bench/perf/run.sh run --seed 1
# Build output goes to stderr, so the last stdout line stays the result.
set -euo pipefail
cd "$(dirname "$0")/../.."
# the build stays inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
