#!/usr/bin/env bash
# stability.sh checks that the benchmark agrees with itself: for each
# workload it runs two sets of runs interleaved (A1 B1 A2 B2 ...), where
# run i of both sets uses seed i, then prints each set's median and
# quartiles per end-to-end metric. It fails when the set medians differ
# by more than a metric's bound in BENCHMARK.json, when a run fails its
# output checks, or when two runs of one seed disagree on the outcome
# digest.
#
#   bash bench/stability.sh [runs-per-set] [workload ...]
#
# Defaults: 5 runs per set; every workload. Runs last BENCHMARK.json's
# run_seconds. Logs and the results table go to .bench_build/stability/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
runs="${1:-5}"
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(table5 observed chaos coord)
fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
out=".bench_build/stability"
mkdir -p "$out"
results="$out/results-$(date +%Y%m%d-%H%M%S).tsv"
: >"$results"

sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "stability: git $sha, $(go version | cut -d' ' -f3-), nproc $(nproc), GOMAXPROCS ${GOMAXPROCS:-unset (= nproc)}"
echo "stability: ${#workloads[@]} workload(s) x 2 sets x $runs runs of ${seconds}s; results in $results"

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            log="$out/$w-$set$i.log"
            status=0
            bash bench/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 >"$log" 2>"$log.err" || status=$?
            digest="$(awk '$1 == "outcome_sha256" { print $2 }' "$log")"
            json="$(tail -n 1 "$log")"
            printf '%s\t%s\t%s\t%s\t%s\n' "$set" "$w" "$i" "${digest:-none}" "$json" >>"$results"
            echo "stability: $w $set$i seed $i exit $status $(grep '^# host' "$log" || true)"
        done
    done
done

exec .bench_build/zbench --compare "$results"
