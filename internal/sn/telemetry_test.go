package sn

import (
	"encoding/json"
	"strings"
	"testing"

	"interedge/internal/cryptutil"
	"interedge/internal/edomain"
	"interedge/internal/lookup"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn/cache"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// TestControlMetricsOp: the SN answers the control-plane "metrics"
// operation with one snapshot of the node registry covering every layer —
// sn_*, pipe_*, cache_*, and per-module sn_module_* instruments.
func TestControlMetricsOp(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	mod := &echoModule{installRule: true}
	if err := node.Register(mod); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// One slow-path round trip so the counters have something to show.
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	cl.await(t)
	// The round trip installed a rule forwarding to the client; what a
	// republish or a dead pipe does to it must show in the snapshot.
	node.Cache().InvalidateDest(cl.addr)
	// One transit packet for the terminus to unwrap (the echo answers its
	// original source) and one it must refuse.
	outer, _ := transitTo(t, node.Addr(), cl.addr, wire.ILPHeader{Service: wire.SvcEcho, Conn: 2})
	if err := cl.mgr.Send(node.Addr(), &outer, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	cl.await(t)
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcPeering, Conn: 3, Data: []byte("short")}, nil); err != nil {
		t.Fatal(err)
	}

	resp := cl.control(t, node.Addr(), 9, rawRequest(wire.SvcNone, "metrics", ""))
	if !resp.OK {
		t.Fatalf("metrics op error: %s", resp.Error)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(resp.Data, &snap); err != nil {
		t.Fatal(err)
	}
	// One instrument per layer proves the snapshot spans the whole node.
	for _, name := range []string{
		"sn_rx_packets_total",
		"sn_transit_unwrapped_total",
		"sn_transit_malformed_total",
		"sn_rx_buffers_released_total",
		"pipe_handshake_attempts_total",
		"pipe_peers",
		"cache_misses_total",
		`cache_invalidated_total{cause="key"}`,
		`cache_invalidated_total{cause="source"}`,
		`cache_invalidated_total{cause="dest"}`,
		`sn_module_handled_total{module="echo"}`,
		`sn_module_queue_depth{module="echo"}`,
		"sn_fastpath_service_ns",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("snapshot missing %s; have %d samples", name, len(snap))
		}
	}
	// Four datagrams: the unwrapped one counts once, not once more for the
	// packet inside it.
	if v := snap.Value("sn_rx_packets_total"); v != 4 {
		t.Errorf("sn_rx_packets_total = %v, want 4", v)
	}
	if v := snap.Value("sn_transit_unwrapped_total"); v != 1 {
		t.Errorf("sn_transit_unwrapped_total = %v, want 1", v)
	}
	if v := snap.Value("sn_transit_malformed_total"); v != 1 {
		t.Errorf("sn_transit_malformed_total = %v, want 1", v)
	}
	if v := snap.Value(`sn_module_handled_total{module="echo"}`); v < 1 {
		t.Errorf("module handled = %v, want >= 1", v)
	}
	// Both echoes were answered before the snapshot was asked for.
	if v := snap.Value(`sn_module_queue_depth{module="echo"}`); v != 0 {
		t.Errorf("module queue depth = %v, want 0", v)
	}
	if v := snap.Value("cache_misses_total"); v < 1 {
		t.Errorf("cache_misses_total = %v, want >= 1", v)
	}
	if v := snap.Value(`cache_invalidated_total{cause="dest"}`); v != 1 {
		t.Errorf(`cache_invalidated_total{cause="dest"} = %v, want 1`, v)
	}
	// The snapshot renders as valid exposition text.
	if s := snap.String(); !strings.Contains(s, "# TYPE sn_rx_packets_total counter") {
		t.Errorf("exposition text missing TYPE line:\n%s", s)
	}
}

// TestControlMetricsOpPinsDrainInstruments pins the names of the
// placement/drain/failover instruments: every operator dashboard and soak
// gate addresses them by name through the control-plane "metrics" op, so a
// rename is a breaking change this test catches. The ring-change counter
// is sourced from an edomain core the way lab.NewPlacement registers it
// on the gateway node.
func TestControlMetricsOpPinsDrainInstruments(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	core := edomain.New("ed-pin", lookup.New())
	core.RegisterSN(node.Addr())
	if err := node.Telemetry().Register(
		telemetry.NewCounterFunc("edomain_ring_changes_total", core.RingChanges)); err != nil {
		t.Fatal(err)
	}
	if err := node.Telemetry().Register(
		telemetry.NewCounterFunc("edomain_ring_watch_dropped_total", core.RingWatchDrops)); err != nil {
		t.Fatal(err)
	}

	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	resp := cl.control(t, node.Addr(), 9, rawRequest(wire.SvcNone, "metrics", ""))
	if !resp.OK {
		t.Fatalf("metrics op error: %s", resp.Error)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(resp.Data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"edomain_ring_changes_total",
		"edomain_ring_watch_dropped_total",
		"sn_drain_started_total",
		"sn_drain_completed_total",
		"sn_drain_aborted_total",
		"sn_handoff_pipes_total",
		"sn_failovers_total",
		"sn_drain_duration_ns",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("metrics op snapshot missing %s", name)
		}
	}
	// The ring-change counter reads through to the core: registration
	// already counted one Down→Active transition.
	if v := snap.Value("edomain_ring_changes_total"); v < 1 {
		t.Errorf("edomain_ring_changes_total = %v, want >= 1", v)
	}
}

// tallyTrace checks the sources of a traced run against the contract of
// the pipe-terminus — each TraceRx under rxSrc, each decision and forward
// under from, each forward to fwdDst — and requires exactly want events of
// each point.
func tallyTrace(t *testing.T, tl *traceLog, rxSrc, from, fwdDst wire.Addr, want map[telemetry.TracePoint]int) {
	t.Helper()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	got := make(map[telemetry.TracePoint]int)
	for _, ev := range tl.evs {
		got[ev.Point]++
		switch {
		case ev.Point == telemetry.TraceRx && ev.Src != rxSrc:
			t.Errorf("TraceRx under %s, want %s", ev.Src, rxSrc)
		case ev.Point != telemetry.TraceRx && ev.Src != from:
			t.Errorf("%v under %s, want %s", ev.Point, ev.Src, from)
		case ev.Point == telemetry.TraceForward && ev.Dst != fwdDst:
			t.Errorf("TraceForward to %s, want %s", ev.Dst, fwdDst)
		}
	}
	for _, p := range []telemetry.TracePoint{telemetry.TraceRx, telemetry.TraceFastPath, telemetry.TraceSlowPath, telemetry.TraceForward, telemetry.TraceDrop} {
		if got[p] != want[p] {
			t.Errorf("%d %v events, want %d", got[p], p, want[p])
		}
	}
}

// TestTraceHooks pins the trace contract of every way into the
// pipe-terminus, which the traced benchmark counts on: each packet is
// exactly one TraceRx, under the source it arrived from, and exactly one
// decision event — fast path, slow path or drop — under the source it is
// served as, which for an unwrapped transit packet is its original source.
// A hit forwards each packet exactly once, traced under that same source.
func TestTraceHooks(t *testing.T) {
	snAddr := wire.MustAddr("fd00::5")
	src, prevHop, origSrc := wire.MustAddr("fd00::1"), wire.MustAddr("fd00::b1"), wire.MustAddr("fd00::77")
	flow := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	flowRaw, err := flow.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// run is a batch of n packets of hdr, as the pipe hands one over: Data
	// aliasing the encoded header.
	run := func(raw []byte, n int) []pipe.RxPacket {
		pkts := make([]pipe.RxPacket, n)
		for k := range pkts {
			if _, err := pkts[k].Hdr.DecodeFromBytes(raw); err != nil {
				t.Fatal(err)
			}
			pkts[k].HdrRaw, pkts[k].Payload = raw, []byte("payload")
		}
		return pkts
	}
	batch := func(from wire.Addr, raw []byte, n int) func(*SN) {
		return func(node *SN) { node.handleBatch(node.mgr, from, run(raw, n)) }
	}
	inject := func(node *SN) { node.Inject(src, flow, []byte("payload")) }
	_, transitRaw := transitTo(t, snAddr, origSrc, flow)
	malformedRaw, err := (&wire.ILPHeader{Service: wire.SvcPeering, Conn: 5}).Encode()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		enclave bool
		warm    bool // the flow has a forward rule, keyed by from
		send    func(*SN)
		n       int
		rxSrc   wire.Addr
		point   telemetry.TracePoint
		from    wire.Addr
	}{
		{"hot run of 8", false, true, batch(src, flowRaw, 8), 8, src, telemetry.TraceFastPath, src},
		{"miss", false, false, batch(src, flowRaw, 1), 1, src, telemetry.TraceSlowPath, src},
		{"transit unwrap hit", false, true, batch(prevHop, transitRaw, 1), 1, prevHop, telemetry.TraceFastPath, origSrc},
		{"transit unwrap miss", false, false, batch(prevHop, transitRaw, 1), 1, prevHop, telemetry.TraceSlowPath, origSrc},
		{"malformed transit", false, false, batch(prevHop, malformedRaw, 1), 1, prevHop, telemetry.TraceDrop, prevHop},
		{"inject hit", false, true, inject, 1, src, telemetry.TraceFastPath, src},
		{"inject miss", false, false, inject, 1, src, telemetry.TraceSlowPath, src},
		{"enclave terminus", true, true, batch(src, flowRaw, 4), 4, src, telemetry.TraceFastPath, src},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tl traceLog
			network := netsim.NewNetwork()
			node := newTestSN(t, network, snAddr.String(), func(c *Config) {
				c.Trace = tl.hook
				c.EnclaveTerminus = tc.enclave
			})
			if err := node.Register(&keepModule{got: make(chan *Packet, 16)}); err != nil {
				t.Fatal(err)
			}
			cl := newClient(t, network, "fd00::c1")
			if err := cl.mgr.Connect(node.Addr()); err != nil {
				t.Fatal(err)
			}
			if tc.warm {
				node.Cache().Add(wire.FlowKey{Src: tc.from, Service: flow.Service, Conn: flow.Conn},
					cache.Action{Forward: []wire.Addr{cl.addr}})
			}
			tc.send(node)

			want := map[telemetry.TracePoint]int{telemetry.TraceRx: tc.n, tc.point: tc.n}
			if tc.point == telemetry.TraceFastPath {
				want[telemetry.TraceForward] = tc.n
			}
			tallyTrace(t, &tl, tc.rxSrc, tc.from, cl.addr, want)
			if tc.point == telemetry.TraceFastPath {
				// Every hit reached the rule's destination with its payload
				// intact (the enclave terminus crossed it in and out).
				for k := 0; k < tc.n; k++ {
					if got := cl.await(t); string(got.payload) != "payload" || got.hdr.Conn != flow.Conn {
						t.Fatalf("delivery %d: header %+v payload %q", k, got.hdr, got.payload)
					}
				}
				// The fast-path histogram recorded the hit.
				smp, ok := node.Telemetry().Snapshot().Get("sn_fastpath_service_ns")
				if !ok || smp.Hist == nil || smp.Hist.Count < 1 {
					t.Fatalf("sn_fastpath_service_ns = %+v, want >= 1 observation", smp)
				}
			}
		})
	}

	// End to end through the pipe: the first packet takes the slow path and
	// the module installs a forward rule back to the client; the second hits
	// it and forwards on the fast path.
	t.Run("slow then fast through the pipe", func(t *testing.T) {
		var tl traceLog
		network := netsim.NewNetwork()
		node := newTestSN(t, network, snAddr.String(), func(c *Config) { c.Trace = tl.hook })
		if err := node.Register(&echoModule{installRule: true}); err != nil {
			t.Fatal(err)
		}
		cl := newClient(t, network, "fd00::c1")
		if err := cl.mgr.Connect(node.Addr()); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"a", "b"} {
			if err := cl.mgr.Send(node.Addr(), &flow, []byte(p)); err != nil {
				t.Fatal(err)
			}
			cl.await(t)
		}
		// The slow-path event follows the module's hand-off, so the echo
		// can reach the client before it is traced.
		waitFor(t, func() bool {
			tl.mu.Lock()
			defer tl.mu.Unlock()
			return len(tl.evs) >= 5
		})
		tallyTrace(t, &tl, cl.addr, cl.addr, cl.addr, map[telemetry.TracePoint]int{
			telemetry.TraceRx: 2, telemetry.TraceSlowPath: 1, telemetry.TraceFastPath: 1, telemetry.TraceForward: 1,
		})
	})
}

// TestControlMetricsOpExposesLookupCounters: a lookup service whose
// instruments are registered into a node's registry surfaces its
// lookup_* counters through the same control-plane "metrics" op as the
// node's own layers — the directory is scraped like any other subsystem.
func TestControlMetricsOpExposesLookupCounters(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	svc := lookup.New()
	svc.RegisterTelemetry(node.Telemetry())
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	addr := wire.MustAddr("fd00::a1")
	sns := []wire.Addr{node.Addr()}
	rec := lookup.AddrRecord{Addr: addr, Owner: owner.Public, SNs: sns}
	if err := svc.RegisterAddress(rec, lookup.SignAddrRecord(owner, addr, sns)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ResolveAddress(addr); err != nil {
		t.Fatal(err)
	}

	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	resp := cl.control(t, node.Addr(), 9, rawRequest(wire.SvcNone, "metrics", ""))
	if !resp.OK {
		t.Fatalf("metrics op error: %s", resp.Error)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(resp.Data, &snap); err != nil {
		t.Fatal(err)
	}
	if v := snap.Value("lookup_registrations_total"); v < 1 {
		t.Errorf("lookup_registrations_total = %v, want >= 1", v)
	}
	if v := snap.Value("lookup_resolves_total"); v < 1 {
		t.Errorf("lookup_resolves_total = %v, want >= 1", v)
	}
	if _, ok := snap.Get("lookup_records"); !ok {
		t.Error("snapshot missing lookup_records gauge")
	}
}
