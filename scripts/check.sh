#!/usr/bin/env sh
# CI gate: static checks, full build, race-detected tests, compressed-time
# soak scenarios with SLO gates (capacity reports land in SOAK_*.json),
# clock-free allocation pins, planted-bug (mutant) checks, and a smoke run
# of the benchmark of record
# (`go run ./benchmark -smoke`: every workload at tiny sizes, untraced and
# traced).
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

# Operator smoke: what a user starts. Every example and the lab tour must
# exit 0; the SN binary, run for two seconds on a loopback socket, must
# print a counter line and then shut down cleanly on SIGINT.
for ex in examples/*/; do
	run "example smoke: ${ex%/}" go run "./$ex"
done
run "lab tour smoke: cmd/interedge-lab" go run ./cmd/interedge-lab

sn_smoke() {
	sn_dir="$(mktemp -d)"
	sn_ok=1
	if go build -o "$sn_dir/interedge-sn" ./cmd/interedge-sn; then
		# timeout exits 124 after the signal whatever the SN did; the output
		# is the verdict.
		timeout -s INT 2 "$sn_dir/interedge-sn" -listen 127.0.0.1:0 -stats 300ms >"$sn_dir/out" 2>&1
		cat "$sn_dir/out"
		if grep -q '^rx=' "$sn_dir/out" && grep -q 'shutting down' "$sn_dir/out"; then
			sn_ok=0
		fi
	fi
	rm -rf "$sn_dir"
	return $sn_ok
}
run "SN binary smoke: a counter line, then a clean shutdown on SIGINT" sn_smoke

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
run "allocation budgets: echo round trip <= 1 (the Conn path, whose messages the application keeps), fast-path delivery to a host handler = 0 over one SN (with and without 16 bytes of header data) and over two (fleet), a cache-hit forward in the SN terminus <= 1 (the fabric's datagram copy; both ends of a transit flow too), an ipfwd Route miss = 0 in one SN and across two edomains, unclaimed packets at a host = 0, a pool miss = 1, consumed datagrams (forged, wrong-SPI, probes) = 0, wire.Datagram = 72 bytes, a lookup resolve (a hit in the folded base or the delta, a miss) = 0 and never waits on the writers' mutex" \
	go test -count=1 -v \
	-run 'TestEchoRoundTripAllocs|TestFastPathDeliveryAllocs|TestSlowPathRouteAllocs|TestFleetTwoSNDeliveryAllocs|TestFastPathForwardAllocs|TestUnclaimedFloodAllocs|TestRxCopyMissCostsOneAllocation|TestRxClassesMatchTheAllocator|TestConsumedDatagramsGoBackToThePool|TestDatagramStaysThreeWords|TestResolveIsAllocationAndLockFree' \
	./internal/lab/ ./internal/wire/ ./internal/pipe/ ./internal/sn/ ./internal/lookup/
run "receive shards and buffer ownership (race-detected: released buffers and recycled slow-path packets are overwritten at once; sharded sim / Mux / UDP portable / mmsg / GSO in per-pipe order, n workers = n goroutines, header and payload kept by host / SN / module, a host handler's packet released when its call returns unless cloned, a miss released after its verdict unless retained (chan / IPC / enclave), a packet abandoned at its deadline never recycled, injected bytes stay the caller's, one rx and one decision trace event per packet on every way into the terminus, wrapped nodes keep their shards, OpenBatch leaves its input alone, undecodable headers counted, the decision cache copies a rewrite and never writes one a lookup has pinned; repeated)" \
	go test -race -count=3 -timeout 300s \
	-run 'TestReceivedPayloadIsTheReceivers|TestReceiveShardsKeepsDepthAndQueue|TestEngineOwnsItsWorkersOnly|TestUndecodableHeaderIsCountedMalformed|TestRetainedPayloadSurvivesLaterPackets|TestHandlerLeaseEndsWithTheCall|TestMessageClone|TestTransitUnwrapMiss|TestReleasedBuffersAreNeverSeenAgain|TestLeaseEndsWithTheInvocation|TestAbandonedInvocationKeepsItsPacket|TestRecycledPacket|TestRxPacketReleaseOnce|TestRxCopyReusesWhatWasReleased|TestOpenBatchLeavesItsInputAlone|TestFastPathDeliveryAllocs|TestFleetTwoSNDeliveryAllocs|TestWrappedNodesKeepTheirReceiveShards|TestInjectedBytesStayTheCallers|TestTraceHooks|TestAddCopiesRewrite|TestPinnedRewriteNeverChanges' \
	./internal/netsim/ ./internal/host/ ./internal/sn/ ./internal/sn/cache/ ./internal/pipe/ ./internal/wire/ ./internal/psp/ ./internal/lab/
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

# Planted bugs the tests must catch: each scripts/mutants/*.patch is applied
# to a copy of the tree, whose named tests must then fail (about 15 s on 2 vCPUs;
# each test run is bounded by a 120 s go test -timeout).
run "mutants: every planted bug fails its named tests (go run ./scripts/mutate; 120 s bound per test run)" \
	go run ./scripts/mutate

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

# The benchmark of record at tiny sizes: every workload, untraced and
# traced, must deliver and read `correct`. Results go to a scratch
# directory so the run leaves nothing in the tree.
bench_out="$(mktemp -d)"
run "benchmark smoke: go run ./benchmark -smoke (every workload, untraced and traced)" \
	go run ./benchmark -smoke -out "$bench_out"
rm -rf "$bench_out"

if [ "$FAILURES" -ne 0 ]; then
	echo ""
	echo "check.sh: $FAILURES suite(s) failed:$FAILED_SUITES"
	exit 1
fi
echo ""
echo "check.sh: all suites passed"
