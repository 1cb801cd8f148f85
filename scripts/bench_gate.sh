#!/usr/bin/env bash
# bench_gate.sh — the allocation and outcome gate, this checkout against a
# base commit:
#
#   bash scripts/bench_gate.sh BASE
#
# BASE is any commit git can resolve (CI passes the pull request's base).
# The script checks BASE out into a temporary git worktree and measures
# both trees the same way:
#   - allocs_per_frame of `bench/run.sh --workload W --seed 1 --seconds 1`
#     for every workload listed in .github/golden/bench-digests.txt;
#   - allocs/op of BenchmarkCovFuzz, because no bench/ workload runs the
#     coverage engine.
# It fails when a figure of this checkout exceeds BASE's by more than the
# allocs_per_frame bound in BENCHMARK.json, when a figure is missing on
# either side, and when a workload's outcome_sha256 differs from the
# committed digest. Allocations are counted, not timed, so the verdict
# does not depend on host load or shape; bench/stability.sh covers time.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: bash scripts/bench_gate.sh BASE" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
base="$(git rev-parse --verify --quiet "$1^{commit}")" || {
    echo "bench_gate: cannot resolve $1 to a commit" >&2
    exit 2
}
golden=.github/golden/bench-digests.txt
bound="$(awk '/"name": "allocs_per_frame"/ { f = 1 } f && /"bound"/ { gsub(/[^0-9.]/, "", $2); print $2; exit }' BENCHMARK.json)"
if [ -z "$bound" ]; then
    echo "bench_gate: no allocs_per_frame bound in BENCHMARK.json" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

# measure TREE SIDE appends "figure value" lines to $tmp/SIDE.txt. A run
# that fails leaves its figures out, and the comparison reports them
# missing.
measure() {
    local tree="$1" side="$2" w
    : >"$tmp/$side.txt"
    while read -r w _; do
        [[ -z "$w" || "$w" == \#* ]] && continue
        echo "bench_gate: $side: bench/run.sh --workload $w" >&2
        (cd "$tree" && bash bench/run.sh --workload "$w" --seed 1 --seconds 1 </dev/null) \
            >"$tmp/$side-$w.out" 2>"$tmp/$side-$w.err" || {
            echo "bench_gate: $side: workload $w failed:" >&2
            tail -n 5 "$tmp/$side-$w.err" >&2
            continue
        }
        awk -v w="$w" '$1 == "allocs_per_frame" || $1 == "outcome_sha256" { print w "." $1, $2 }' \
            "$tmp/$side-$w.out" >>"$tmp/$side.txt"
    done <"$golden"
    echo "bench_gate: $side: go test -bench BenchmarkCovFuzz" >&2
    (cd "$tree" && go test ./internal/harness -run '^$' -bench 'BenchmarkCovFuzz$' -benchmem -benchtime 2x) \
        >"$tmp/$side-covfuzz.out" 2>&1 || {
        echo "bench_gate: $side: BenchmarkCovFuzz failed:" >&2
        tail -n 5 "$tmp/$side-covfuzz.out" >&2
    }
    awk '$1 ~ /^BenchmarkCovFuzz(-[0-9]+)?$/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print "covfuzz.allocs_per_op", $i
    }' "$tmp/$side-covfuzz.out" >>"$tmp/$side.txt"
}

measure "$tmp/base" base
measure "$root" change

echo "bench_gate: base $(git rev-parse --short "$base") vs change $(git rev-parse --short HEAD) (working tree), bound +$(awk -v b="$bound" 'BEGIN { print b * 100 }')%"
awk -v bound="$bound" '
FILENAME == ARGV[1] {
    if ($1 ~ /^#/ || NF < 2) next
    order[++n] = $1
    digest[$1] = $2
    next
}
FILENAME == ARGV[2] { base[$1] = $2; next }
{ now[$1] = $2 }
END {
    for (i = 1; i <= n; i++) figs[i] = order[i] ".allocs_per_frame"
    figs[n + 1] = "covfuzz.allocs_per_op"
    failed = ""
    printf "%-28s %14s %14s %9s\n", "figure", "base", "change", "delta"
    for (i = 1; i <= n + 1; i++) {
        f = figs[i]
        if (!(f in base) || !(f in now)) {
            printf "%-28s %14s %14s   MISSING\n", f, (f in base) ? base[f] : "-", (f in now) ? now[f] : "-"
            failed = failed " " f
            continue
        }
        verdict = ""
        if (now[f] + 0 > (base[f] + 0) * (1 + bound)) {
            verdict = "  FAIL"
            failed = failed " " f
        }
        delta = base[f] > 0 ? sprintf("%+.2f%%", 100 * (now[f] - base[f]) / base[f]) : "-"
        printf "%-28s %14.6g %14.6g %9s%s\n", f, base[f], now[f], delta, verdict
    }
    for (i = 1; i <= n; i++) {
        w = order[i]
        got = now[w ".outcome_sha256"]
        if (got != digest[w]) {
            printf "%s outcome_sha256 %s, want %s\n", w, got == "" ? "missing" : got, digest[w]
            failed = failed " " w ".outcome_sha256"
        }
    }
    if (failed != "") {
        print "bench_gate: FAIL:" failed
        exit 1
    }
    print "bench_gate: OK"
}' "$golden" "$tmp/base.txt" "$tmp/change.txt"
