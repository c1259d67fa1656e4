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
#
# KNOWN_FLAKY — every test that failed in 5 x `go test ./...` (plain) or
# 5 x `go test -race -short ./...` (race) at this tree, by name and count
# (2 vCPUs, shared box, PR 23). The list is meant to shrink (ROADMAP items 1
# and 3): a test not named here that fails is a regression, and a PR that
# fixes one deletes its row. "alone" = the test by itself, this tree vs parent.
#
#   test                                                      plain  race   note
#   chaos  TestSoakMultiEdomainChaos/seed={1,7,42}            5/5    5/5    fails every run on both trees (also alone)
#   soak   TestSoakScenarios/sn-crash-failover/seed1          5/5    1/5    wall-clock: manual clock vs real goroutines (item 3)
#   soak   TestSoakScenarios/sn-crash-failover/seed7          5/5    0/5    "
#   soak   TestSoakScenarios/sn-crash-failover/seed42         4/5    0/5    "
#   soak   TestSoakScenarios/steady-diurnal/seed1             5/5    0/5    " (race -short runs seed1 of each scenario only: "-")
#   soak   TestSoakScenarios/steady-diurnal/seed{7,42}        2/5    -      "
#   soak   TestSoakScenarios/degrade-recover/seed1            3/5    0/5    "
#   soak   TestSoakScenarios/degrade-recover/seed{7,42}       1/5    -      "
#   soak   TestSoakScenarios/sn-drain-rolling/seed42          2/5    -      "
#   soak   TestSoakScenarios/sn-drain-rolling/seed{1,7}       1/5    0/5    "
#   soak   TestSoakScenarios/loss-burst-access/seed{1,7,42}   1/5    0/5    "
#   soak   TestFleetScale                                     0/5    4/5    fast-path share 0.58-0.59 vs gate 0.6; alone 0/3, parent 2/3
#   lab    TestWarmFlowFollowsRepublishedDestination          3/5    1/5    a late watch event drops the warm rule; alone x40: 15, parent 24
#   lab    TestPlacementDownReaddRebalances                   0/5    5/5    publish order after re-add; alone x15: 13, parent 15
#   bench  TestTable1Shape                                    0/5    1/5    compares two wall-clock latencies (58.0 vs 56.8 us)
#   pipe   TestSimultaneousOpen                               0/5    0/5    alone x250 under -race: 3 % (parent 10 %): a msg1 sent after
#                                                                           its sender answered the peer's replaces the agreed keys
#
# No longer flaky since the handshake fix of PR 23 (0/10 plain+race here and
# 0/10 each alone under -race; parent alone under -race: 4/10, 3/10, 1/10):
# lab.TestHostMobilityAcrossEdomains, sn.TestDrainMidHandshakeSingleKeyEpoch,
# host.TestUnclaimedCounted / TestServiceHandlerReceivesUnclaimed; and
# benchmark.TestSmoke, bench.TestTable1NoService (0/10 in the sweeps).
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
run "allocation budgets: echo round trip <= 3, fast-path delivery <= 1 over one SN and over two (fleet), a pool miss = 1, consumed datagrams = 0, wire.Datagram = 72 bytes" \
	go test -count=1 -v \
	-run 'TestEchoRoundTripAllocs|TestFastPathDeliveryAllocs|TestFleetTwoSNDeliveryAllocs|TestRxCopyMissCostsOneAllocation|TestRxClassesMatchTheAllocator|TestConsumedDatagramsGoBackToThePool|TestDatagramStaysThreeWords' \
	./internal/lab/ ./internal/wire/ ./internal/pipe/
run "receive-buffer release safety (race-detected: released buffers are overwritten at once; sim / Mux / UDP portable / mmsg / GSO, host, SN, pipe; repeated)" \
	go test -race -count=3 -timeout 300s \
	-run 'TestReceivedPayloadIsTheReceivers|TestRetainedPayloadSurvivesLaterPackets|TestReleasedBuffersAreNeverSeenAgain|TestRxPacketReleaseOnce|TestRxCopyReusesWhatWasReleased|TestFastPathDeliveryAllocs|TestFleetTwoSNDeliveryAllocs' \
	./internal/netsim/ ./internal/host/ ./internal/sn/ ./internal/pipe/ ./internal/wire/ ./internal/lab/
run "handshake order: pipe installed before msg2 leaves, both stacks (race-detected, x30)" \
	go test -race -count=30 -timeout 120s -run 'TestPipeIsInstalledBeforeMsg2Leaves' ./internal/pipe/

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
