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
# (2 vCPUs, shared box), with the parent's count from the same interleaved
# sweep after "parent:". Rows at 0/5 failed in an earlier sweep and are not
# known fixed. The list is meant to shrink (ROADMAP items 1 and 3): a test
# not named here that fails is a regression, and a change that fixes one
# deletes its row. "alone" = the test by itself, this tree vs parent.
#
#   test                                                      plain  race   note
#   soak   TestSoakScenarios/steady-diurnal/seed1             0/5    0/5    wall-clock: manual clock vs real goroutines (item 4);
#                                                                           race -short runs seed1 of each scenario only ("-"); parent: 2/5, 0/5
#   soak   TestSoakScenarios/steady-diurnal/seed{7,42}        0/5    -      "; parent: 1/5
#   soak   TestSoakScenarios/degrade-recover/seed1            1/5    0/5    "; parent: 1/5, 0/5
#   soak   TestSoakScenarios/degrade-recover/seed{7,42}       0/5    -      "; parent: 0/5
#   soak   TestSoakScenarios/loss-burst-access/seed{1,42}     0/5    0/5    "; parent: 1/5, 0/5
#   soak   TestSoakScenarios/loss-burst-access/seed7          0/5    -      "; parent: 1/5
#   soak   TestFleetScale                                     1/5    3/5    fast-path share 0.29-0.59 vs gate 0.6 under -race; parent: 4/5, 5/5
#   lab    TestWarmFlowFollowsRepublishedDestination          2/5    0/5    a late watch event drops the warm rule (item 1); parent: 0/5, 1/5;
#                                                                           alone x80: 22/80 vs 19/80; the race loses more often the
#                                                                           more often GC runs: alone x200 with caches that grow,
#                                                                           51/200 vs 27/200, and the parent at GOGC=10 23/80 vs 13/80
#   lab    TestPlacementDownReaddRebalances                   0/5    5/5    publish order after re-add (item 1); parent: 0/5, 5/5
#   bench  TestTable1Shape                                    0/5    0/5    compares two wall-clock latencies; parent: 0/5, 0/5
#   pipe   TestSimultaneousOpen                               0/5    0/5    alone x250 under -race: 3 % (earlier sweep): a msg1 sent after
#                                                                           its sender answered the peer's replaces the agreed keys
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

run "chaos suite (race-detected, fixed seeds, bounded)" \
	go test -race -count=1 -timeout 180s ./internal/chaos/

run "module-fault containment suite (race-detected, fixed seeds)" \
	go test -race -count=1 -timeout 120s -run 'TestModuleFaultContainmentChaos' ./internal/chaos/
run "module-fault containment: sn unit suites, and control requests that panic or are malformed" \
	go test -race -count=1 -timeout 120s \
	-run 'Breaker|PanicContainment|PanicIPC|DeadlineTimeout|Degraded|IPCDecodeFailure|IPCRestarting|ControlPanicContained|MalformedControl' \
	./internal/sn/ ./internal/services/ordered/ ./internal/services/msgqueue/
run "group services: shared membership, sender registration and host client (race-detected, x3)" \
	go test -race -count=3 -timeout 300s \
	./internal/services/groupfan/ ./internal/services/pubsub/ ./internal/services/multicast/ ./internal/services/anycast/
run "slow-path dispatcher: close race, worker ownership, queue order and depth (race-detected, repeated)" \
	go test -race -count=10 -timeout 180s \
	-run 'TestDispatcher|TestInProcessModuleOwnsItsWorkersOnly|TestSlowPath' \
	./internal/sn/
run "allocation budgets: echo round trip <= 3, fast-path delivery <= 1 over one SN and over two (fleet), a pool miss = 1, consumed datagrams (forged, wrong-SPI, probes) = 0, wire.Datagram = 72 bytes" \
	go test -count=1 -v \
	-run 'TestEchoRoundTripAllocs|TestFastPathDeliveryAllocs|TestFleetTwoSNDeliveryAllocs|TestRxCopyMissCostsOneAllocation|TestRxClassesMatchTheAllocator|TestConsumedDatagramsGoBackToThePool|TestDatagramStaysThreeWords' \
	./internal/lab/ ./internal/wire/ ./internal/pipe/
run "receive-buffer release safety (race-detected: released buffers are overwritten at once; sim / Mux / UDP portable / mmsg / GSO, host, SN, pipe; repeated)" \
	go test -race -count=3 -timeout 300s \
	-run 'TestReceivedPayloadIsTheReceivers|TestRetainedPayloadSurvivesLaterPackets|TestReleasedBuffersAreNeverSeenAgain|TestRxPacketReleaseOnce|TestRxCopyReusesWhatWasReleased|TestFastPathDeliveryAllocs|TestFleetTwoSNDeliveryAllocs' \
	./internal/netsim/ ./internal/host/ ./internal/sn/ ./internal/pipe/ ./internal/wire/ ./internal/lab/
run "pipe stack, whole package: handshakes, liveness, egress, handoff, RX affinity (race-detected, x3)" \
	go test -race -count=3 -timeout 300s ./internal/pipe/
run "handshake order: pipe installed before msg2 leaves, single-address and mux (race-detected, x30)" \
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
run "fuzz smoke: control requests and replies against an SN serving every service module" \
	go test -run '^$' -fuzz 'FuzzControlOps' -fuzztime 5s ./internal/lab/

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

run "memory follows state: heap pins (an empty 65 536-entry cache <= 64 KiB, an idle SN < 1 MiB), psp epoch slots against the two-map reference" \
	go test -count=1 -v \
	-run 'TestEmptyCacheHoldsNoSlots|TestIdleSNHeap|TestEpochSlotsMatchReference|TestBatchRejectsEpochTwoBehindANewerOne' \
	./internal/sn/cache/ ./internal/lab/ ./internal/psp/
run "memory follows state: cache gauges read while the cache grows (race-detected, x3)" \
	go test -race -count=3 -timeout 120s -run 'TestGaugesWhileGrowing|TestFanoutNodesSurviveGrowth' ./internal/sn/cache/

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
