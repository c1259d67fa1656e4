#!/usr/bin/env sh
# CI gate: static checks, full build, race-detected tests, compressed-time
# soak scenarios with SLO gates (capacity reports land in SOAK_*.json), and
# a benchmark smoke run whose results land in BENCH_6.json at the repo root.
#
# Every suite runs even after an earlier failure; the script's exit code is
# nonzero if ANY suite failed, so a later passing run can never mask an
# earlier one (notably a -race failure followed by green plain-build runs).
#
# Usage: scripts/check.sh
set -u

cd "$(dirname "$0")/.."

FAILURES=0
FAILED_SUITES=""

# run <label> <cmd...>: execute a suite, record its exit code.
run() {
	label="$1"
	shift
	echo "==> $label"
	if ! "$@"; then
		FAILURES=$((FAILURES + 1))
		FAILED_SUITES="$FAILED_SUITES
  FAIL: $label"
		echo "!!! suite failed: $label"
	fi
}

# Static checks and the build gate everything else; a broken tree makes
# the remaining suites meaningless, so these two still fail fast.
echo "==> go vet ./..."
go vet ./... || exit 1

echo "==> go build ./..."
go build ./... || exit 1

# Broad race-detected sweep. -short keeps the soak package to one seed per
# scenario here (the full three-seed matrix runs below without the race
# detector's ~10x slowdown).
run "go test -race -short ./..." \
	go test -race -short -timeout 900s ./...

run "compressed-time soak suite (full scenario x seed matrix, SLO gates, full-scale fleet)" \
	go test -count=1 -timeout 900s ./internal/soak/

run "soak capacity reports (fast subset; writes SOAK_*.json, fails on SLO breach)" \
	go run ./cmd/interedge-lab -soak -soak-scenarios steady-diurnal,gateway-flap-storm,sn-drain-rolling,sn-crash-failover -soak-seeds 1 -soak-out .

run "telemetry registry suite (race-detected + zero-alloc pins)" \
	go test -race -count=1 -run 'TestRegistryConcurrency|TestSharedInstrument' ./internal/telemetry/
run "telemetry zero-alloc pins" \
	go test -count=1 -run 'ZeroAlloc' ./internal/telemetry/

echo "==> UDP GSO capability probe (informational; batch paths fall back when absent)"
go test -count=1 -run 'TestUDPGSOCapabilityProbe' -v ./internal/netsim/ | grep -i 'gso\|PASS\|FAIL' || true

run "forced segmentation-offload fallback suite (INTEREDGE_NO_GSO=1)" \
	env INTEREDGE_NO_GSO=1 go test -count=1 ./internal/netsim/ ./internal/pipe/ ./internal/chaos/

run "chaos suite (race-detected, fixed seeds, bounded)" \
	go test -race -count=1 -timeout 180s ./internal/chaos/

run "module-fault containment suite (race-detected, fixed seeds)" \
	go test -race -count=1 -timeout 120s -run 'TestModuleFaultContainmentChaos' ./internal/chaos/
run "module-fault containment: sn unit suites" \
	go test -race -count=1 -timeout 120s \
	-run 'Breaker|PanicContainment|PanicIPC|DeadlineTimeout|Degraded|IPCDecodeFailure|IPCRestarting' \
	./internal/sn/
run "slow-path dispatcher: close race, worker ownership, queue order and depth (race-detected, repeated)" \
	go test -race -count=10 -timeout 180s \
	-run 'TestDispatcher|TestInProcessModuleOwnsItsWorkersOnly|TestSlowPath' \
	./internal/sn/
run "end-to-end allocation budgets over lab (echo round trip <= 4, fast-path delivery <= 2) and payload ownership" \
	go test -count=1 -v \
	-run 'TestEchoRoundTripAllocs|TestFastPathDeliveryAllocs|TestReceivedPayloadIsTheReceivers|TestRetainedPayloadSurvivesLaterPackets' \
	./internal/lab/ ./internal/netsim/ ./internal/host/

run "fuzz smoke: wire ILP header decode" \
	go test -run '^$' -fuzz 'FuzzILPHeaderDecode' -fuzztime 5s ./internal/wire/
run "fuzz smoke: wire datagram decode" \
	go test -run '^$' -fuzz 'FuzzDatagramDecode' -fuzztime 5s ./internal/wire/
run "fuzz smoke: drain/handoff state decode" \
	go test -run '^$' -fuzz 'FuzzHandoffDecode' -fuzztime 5s ./internal/wire/
run "fuzz smoke: inter-edomain transit header decode" \
	go test -run '^$' -fuzz 'FuzzTransitDecode' -fuzztime 5s ./internal/wire/
run "fuzz smoke: PSP open" \
	go test -run '^$' -fuzz 'FuzzPSPOpen' -fuzztime 5s ./internal/psp/
run "fuzz smoke: signed address-record registration" \
	go test -run '^$' -fuzz 'FuzzAddrRecordRegistration' -fuzztime 5s ./internal/lookup/
run "fuzz smoke: decision-cache operations against the scanning reference" \
	go test -run '^$' -fuzz 'FuzzCacheOps' -fuzztime 5s ./internal/sn/cache/

run "inter-edomain transit: peering and ipfwd suites (race-detected)" \
	go test -race -count=1 -timeout 180s ./internal/peering/ ./internal/services/ipfwd/
run "inter-edomain transit: connection-ID collision, re-steer and route-change cases (race-detected)" \
	go test -race -count=1 -timeout 180s \
	-run 'TestEqualConnectionIDsFromTwoHosts|TestWarmFlowFollowsRepublishedDestination|TestRouteChangeMovesWarmFlow' \
	./internal/lab/

run "rescache interleaving property suite (race-detected, fixed seeds)" \
	go test -race -count=1 -timeout 180s ./internal/lookup/rescache/

run "decision-cache reference-model and concurrent suites (race-detected, fixed seeds)" \
	go test -race -count=1 -timeout 180s ./internal/sn/cache/

# bench_suite <label> <out.json> <pkg> <bench-regex>: run one benchmark
# suite, convert to a JSON artifact, and gate it. Benchmark output goes
# through a temp file, not a pipeline: a pipeline's exit status is its
# last command's, which would swallow a bench failure.
bench_suite() {
	bs_label="$1"
	bs_out="$2"
	bs_pkg="$3"
	bs_regex="$4"
	echo "==> benchmark smoke run ($bs_label)"
	BENCH_TMP="$(mktemp)"
	if go test -run '^$' -bench "$bs_regex" -benchtime 20000x -benchmem "$bs_pkg" >"$BENCH_TMP"; then
		if BENCHJSON_OUT="$bs_out" go run ./scripts/benchjson <"$BENCH_TMP"; then
			echo "==> wrote $bs_out"
			run "benchmark gate ($bs_label)" \
				go run ./scripts/benchgate "$bs_out"
		else
			FAILURES=$((FAILURES + 1))
			FAILED_SUITES="$FAILED_SUITES
  FAIL: benchjson conversion ($bs_out)"
		fi
	else
		FAILURES=$((FAILURES + 1))
		FAILED_SUITES="$FAILED_SUITES
  FAIL: benchmark smoke run ($bs_label)"
		cat "$BENCH_TMP"
	fi
	rm -f "$BENCH_TMP"
}

bench_suite "Figure 2 pipeline" BENCH_6.json . Figure2
bench_suite "planet-scale lookup read path" BENCH_8.json ./internal/lookup/ \
	'BenchmarkLookupResolve|BenchmarkLookupChurn|BenchmarkWatchFanout'
bench_suite "fleet RX fan-out (shared engine)" BENCH_10.json ./internal/pipe/ \
	BenchmarkFleetRxFanout

if [ "$FAILURES" -ne 0 ]; then
	echo ""
	echo "check.sh: $FAILURES suite(s) failed:$FAILED_SUITES"
	exit 1
fi
echo ""
echo "check.sh: all suites passed"
