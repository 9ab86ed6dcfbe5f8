#!/usr/bin/env bash
# Builds cmd/hmnd from this checkout and the hmnperf benchmark into
# .bench_build, then runs the benchmark with the given arguments, e.g.
#
#   bash hmnperf/run.sh --workload churn-small --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local

go build -o "$out/hmnd" ./cmd/hmnd >&2
(cd "$root/hmnperf" && go build -o "$out/hmnperf" .) >&2
exec "$out/hmnperf" -root "$root" -hmnd "$out/hmnd" "$@"
