package sn

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"interedge/internal/cryptutil"
	"interedge/internal/edomain"
	"interedge/internal/lookup"
	"interedge/internal/netsim"
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

// TestTraceHooks: a configured trace hook observes each packet's path
// through the pipe-terminus — rx, slow path on the first packet, fast path
// plus forward once the module's rule is installed.
func TestTraceHooks(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[telemetry.TracePoint]int)
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5", func(c *Config) {
		c.Trace = func(ev telemetry.PacketTrace) {
			mu.Lock()
			seen[ev.Point]++
			mu.Unlock()
		}
	})
	if err := node.Register(&echoModule{installRule: true}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// First packet takes the slow path and installs a forward rule; the
	// second hits the cache and forwards on the fast path.
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	cl.await(t)
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	cl.await(t)

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[telemetry.TraceRx] >= 2 &&
			seen[telemetry.TraceSlowPath] >= 1 &&
			seen[telemetry.TraceFastPath] >= 1 &&
			seen[telemetry.TraceForward] >= 1
	})

	// The fast-path histogram recorded the hit.
	smp, ok := node.Telemetry().Snapshot().Get("sn_fastpath_service_ns")
	if !ok || smp.Hist == nil || smp.Hist.Count < 1 {
		t.Fatalf("sn_fastpath_service_ns = %+v, want >= 1 observation", smp)
	}
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
