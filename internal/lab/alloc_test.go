package lab

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/services/echo"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// The allocation budgets of the two packet paths, measured over the real
// thing — hosts, pipes, an SN and its module on the lab fabric — because a
// hand-assembled pipeline has said 0 allocs/op all along while the
// benchmark's end-to-end allocs_per_pkt said 11 and 3.2.

// TestEchoRoundTripAllocs: one Conn.Send → SN miss → echo → Conn.Receive
// round trip. The budget is the floor, 3: the fabric's copy of the datagram
// on each of the two hops — neither comes back, the module and the
// application keep what they are handed, so both are pool misses, and a pool
// miss is exactly one allocation — and the *sn.Packet the slow path hands
// the module.
func TestEchoRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes sync.Pool retention and alloc counts")
	}
	topo := New()
	defer topo.Close()
	mod := echo.New()
	ed, err := topo.AddEdomain("ed-a", 1, func(node *sn.SN, _ *Edomain) error { return node.Register(mod) })
	if err != nil {
		t.Fatal(err)
	}
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 256)
	lost := time.After(30 * time.Second) // one timer for the whole test: a timer per round trip would be counted
	roundTrip := func() {
		if err := conn.Send(nil, payload); err != nil {
			t.Fatal(err)
		}
		select {
		case <-conn.Receive():
		case <-lost:
			t.Fatal("echo never came back")
		}
	}
	for i := 0; i < 64; i++ { // warm the seal-buffer pools and crypto scratches
		roundTrip()
	}
	before := mod.Handled()
	allocs := testing.AllocsPerRun(500, roundTrip)
	t.Logf("echo round trip: %.2f allocations", allocs)
	if allocs > 3 {
		t.Errorf("echo round trip allocated %.2f times, want <= 3", allocs)
	}
	if n := mod.Handled() - before; n != 501 {
		t.Errorf("echo module handled %d of 501 packets; the slow path was not what was measured", n)
	}
}

// releasedBuffers reads how many receive buffers node has given back.
func releasedBuffers(node *sn.SN) uint64 {
	return uint64(node.Telemetry().Snapshot().Value("sn_rx_buffers_released_total"))
}

// TestFastPathDeliveryAllocs: Host.SendHeaderBytes → a SvcNone forwarding
// rule at the SN → the receiving host's service handler. One allocation: the
// SN gives the buffer it received back once the forward is staged, the
// fabric copies the next hop's datagram into it, and that one leaves with
// the receiving host, whose handler may keep it. The release count is checked
// under -race too, where allocation counts mean nothing.
func TestFastPathDeliveryAllocs(t *testing.T) {
	topo := New()
	defer topo.Close()
	ed, err := topo.AddEdomain("ed-a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{}, 1)
	dst.OnService(wire.SvcNone, func(host.Message) { got <- struct{}{} })
	node := ed.SNs[0]
	hdr := wire.ILPHeader{Service: wire.SvcNone, Conn: 7}
	hdrRaw, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	node.Cache().Add(wire.FlowKey{Src: src.Addr(), Service: hdr.Service, Conn: hdr.Conn},
		cache.Action{Forward: []wire.Addr{dst.Addr()}})
	payload := make([]byte, 64)
	lost := time.After(30 * time.Second)
	deliver := func() {
		if err := src.SendHeaderBytes(node.Addr(), hdrRaw, payload); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-lost:
			t.Fatal("packet never delivered")
		}
	}
	for i := 0; i < 64; i++ {
		deliver()
	}
	hitsBefore, releasedBefore := node.Counters().FastPathHits, releasedBuffers(node)
	allocs := testing.AllocsPerRun(500, deliver)
	t.Logf("fast-path delivery: %.2f allocations", allocs)
	if allocs > 1 && !raceEnabled {
		t.Errorf("fast-path delivery allocated %.2f times, want <= 1 (the buffer that leaves with the receiving host)", allocs)
	}
	if n := node.Counters().FastPathHits - hitsBefore; n != 501 {
		t.Errorf("%d of 501 packets hit the decision cache; the fast path was not what was measured", n)
	}
	if n := releasedBuffers(node) - releasedBefore; n != 501 {
		t.Errorf("the SN gave back the receive buffers of %d of 501 hits", n)
	}
}

// TestFleetTwoSNDeliveryAllocs: the same delivery across two SNs and the
// other pipe stack — a fleet host (pipe.Engine over netsim.Mux) → its SN →
// the sibling SN → a fleet host there. The buffer hops with the packet: each
// SN releases what it received before its egress flushes, so the copy for the
// next hop lands in it, and the whole path still costs the one allocation
// that leaves with the receiving host — not one per hop.
func TestFleetTwoSNDeliveryAllocs(t *testing.T) {
	topo := New()
	defer topo.Close()
	got := make(chan struct{}, 1)
	fleet, err := topo.NewFleet(FleetConfig{
		SNs: 2, Hosts: 8,
		RegisterSN: func(*Topology, *Edomain, *sn.SN) error { return nil },
		HostConfig: func(_ int, cfg *host.Config) {
			cfg.FastHandler = func(wire.Addr, wire.ILPHeader, []byte) { got <- struct{}{} }
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two hosts ring placement put on different SNs.
	src := fleet.Hosts[0]
	first, err := src.FirstHop()
	if err != nil {
		t.Fatal(err)
	}
	var dst *host.Host
	var second wire.Addr
	for _, h := range fleet.Hosts[1:] {
		if via, err := h.FirstHop(); err == nil && via != first {
			dst, second = h, via
			break
		}
	}
	if dst == nil {
		t.Fatal("ring placement put all 8 hosts on one SN")
	}
	hdr := wire.ILPHeader{Service: wire.SvcNone, Conn: 7}
	hdrRaw, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var nodes [2]*sn.SN
	for _, node := range fleet.Ed.SNs {
		switch node.Addr() {
		case first:
			nodes[0] = node
			node.Cache().Add(wire.FlowKey{Src: src.Addr(), Service: hdr.Service, Conn: hdr.Conn},
				cache.Action{Forward: []wire.Addr{second}})
		case second:
			nodes[1] = node
			node.Cache().Add(wire.FlowKey{Src: first, Service: hdr.Service, Conn: hdr.Conn},
				cache.Action{Forward: []wire.Addr{dst.Addr()}})
		}
	}
	payload := make([]byte, 64)
	lost := time.After(30 * time.Second)
	deliver := func() {
		if err := src.SendHeaderBytes(first, hdrRaw, payload); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-lost:
			t.Fatal("packet never delivered")
		}
	}
	for i := 0; i < 64; i++ {
		deliver()
	}
	before := [2]uint64{releasedBuffers(nodes[0]), releasedBuffers(nodes[1])}
	allocs := testing.AllocsPerRun(500, deliver)
	t.Logf("two-SN fleet delivery: %.2f allocations", allocs)
	if allocs > 1 && !raceEnabled {
		t.Errorf("two-SN fleet delivery allocated %.2f times, want <= 1 whatever the hop count", allocs)
	}
	for i, node := range nodes {
		if n := releasedBuffers(node) - before[i]; n != 501 {
			t.Errorf("SN %d gave back the receive buffers of %d of 501 hits", i, n)
		}
	}
}
