#!/bin/sh
# fuzz_smoke.sh — run every native fuzz target for a short burst each, on
# top of the committed seed corpora under */testdata/fuzz/. A crasher fails
# the script (and go's fuzzing machinery writes the reproducer to testdata,
# so it becomes a permanent regression test).
#
#   ./scripts/fuzz_smoke.sh          # 10s per target
#   FUZZTIME=1m ./scripts/fuzz_smoke.sh
set -eu

cd "$(dirname "$0")/.."

fuzztime="${FUZZTIME:-10s}"

# target package pairs, one per line: "FuzzName ./package/path"
targets="
FuzzFrameDecode ./internal/protocol
FuzzDecode ./internal/protocol
FuzzParseRoutedPayload ./internal/protocol
FuzzParseMulticastPayload ./internal/protocol
FuzzS0Decrypt ./internal/security
FuzzS2Decrypt ./internal/security
FuzzReadLog ./internal/zcover/fuzz
FuzzDecodeSerial ./internal/serialapi
FuzzDecodeOutcome ./internal/harness
FuzzCoordHandlers ./internal/coord
"

echo "$targets" | while read -r name pkg; do
    [ -n "$name" ] || continue
    echo "== go test -fuzz=$name -fuzztime=$fuzztime $pkg =="
    go test -fuzz="^${name}\$" -fuzztime="$fuzztime" -run '^$' "$pkg"
done

echo "fuzz-smoke: OK"
