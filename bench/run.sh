#!/usr/bin/env bash
# run.sh builds the campaign benchmark from the checkout it sits in and
# runs one workload from the checkout root:
#
#   bash bench/run.sh --workload table5 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, and every file a run writes stay under
# .bench_build/ in the checkout, and the build never touches the network.
# Build output goes to stderr so the last stdout line is the result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/zbench" .) >&2
cd "$root"
exec "$build/zbench" "$@"
