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
// round trip. The floor is 3 — the fabric's copy of the datagram on each
// of the two hops, and the *sn.Packet the slow path hands the module —
// and the budget leaves one allocation of slack.
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
	if allocs > 4 {
		t.Errorf("echo round trip allocated %.2f times, want <= 4", allocs)
	}
	if n := mod.Handled() - before; n != 501 {
		t.Errorf("echo module handled %d of 501 packets; the slow path was not what was measured", n)
	}
}

// TestFastPathDeliveryAllocs: Host.SendHeaderBytes → a SvcNone forwarding
// rule at the SN → the receiving host's service handler. Only the fabric
// allocates: its copy of the datagram on each hop.
func TestFastPathDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes sync.Pool retention and alloc counts")
	}
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
	before := node.Counters().FastPathHits
	allocs := testing.AllocsPerRun(500, deliver)
	t.Logf("fast-path delivery: %.2f allocations", allocs)
	if allocs > 2 {
		t.Errorf("fast-path delivery allocated %.2f times, want <= 2 (the fabric's two copies)", allocs)
	}
	if n := node.Counters().FastPathHits - before; n != 501 {
		t.Errorf("%d of 501 packets hit the decision cache; the fast path was not what was measured", n)
	}
}
