# Tier-1 gate and convenience targets. `make verify` must pass before
# every commit; CI runs the same script.

.PHONY: verify verify-full test bench-scaling build fuzz-smoke

verify:
	./scripts/verify.sh

# Includes the 24h-budget campaign tests (slow; what CI runs nightly).
verify-full:
	./scripts/verify.sh -full

build:
	go build ./...

test:
	go test ./...

# Runs the fleet scaling sweep at 24 h budgets (one unmeasured warm-up, then
# 11 interleaved workers=1/workers=2 pairs; needs GOMAXPROCS >= 2) and gates
# it: fails when the CPU inflation at workers=2, busy CPU over the workers=1
# run's, rose more than 10% above the committed BENCH_scaling.json's. The fresh report
# lands in .bench_build/; copy it over BENCH_scaling.json to refresh the bar.
bench-scaling:
	mkdir -p .bench_build
	go run ./cmd/experiments -run scaling -scaling-baseline BENCH_scaling.json \
		-scaling-out .bench_build/BENCH_scaling.json -git-sha "$$(git rev-parse --short HEAD)"

# Runs every native fuzz target for a short burst (default 10s each) on top
# of the committed corpora. FUZZTIME=1m make fuzz-smoke for longer runs.
fuzz-smoke:
	./scripts/fuzz_smoke.sh
