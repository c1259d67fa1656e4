package peering

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

func TestFabricEdomainRegistry(t *testing.T) {
	f := NewFabric()
	gwA := wire.MustAddr("fd00::a1")
	if err := f.AddEdomain("ed-a", gwA); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdomain("ed-a", gwA); err == nil {
		t.Fatal("duplicate edomain accepted")
	}
	if err := f.AddEdomain("ed-x"); err == nil {
		t.Fatal("edomain without gateway accepted")
	}
	if err := f.RegisterAddr("ed-a", wire.MustAddr("fd00::a2")); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAddr("ed-zzz", wire.MustAddr("fd00::a3")); err == nil {
		t.Fatal("register in unknown edomain accepted")
	}
	if ed, ok := f.EdomainOf(gwA); !ok || ed != "ed-a" {
		t.Fatalf("EdomainOf gateway = %v %v", ed, ok)
	}
	if _, ok := f.EdomainOf(wire.MustAddr("fd00::ff")); ok {
		t.Fatal("unknown address resolved")
	}
}

func buildThreeEdomainFabric(t *testing.T) (*Fabric, map[string]wire.Addr) {
	t.Helper()
	f := NewFabric()
	addrs := map[string]wire.Addr{
		"gwA": wire.MustAddr("fd00::a1"), "snA": wire.MustAddr("fd00::a2"),
		"gwB": wire.MustAddr("fd00::b1"), "snB": wire.MustAddr("fd00::b2"),
		"gwC": wire.MustAddr("fd00::c1"),
	}
	if err := f.AddEdomain("ed-a", addrs["gwA"]); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdomain("ed-b", addrs["gwB"]); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdomain("ed-c", addrs["gwC"]); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAddr("ed-a", addrs["snA"]); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterAddr("ed-b", addrs["snB"]); err != nil {
		t.Fatal(err)
	}
	var connects [][2]wire.Addr
	if err := f.EstablishMesh(func(a, b wire.Addr) error {
		connects = append(connects, [2]wire.Addr{a, b})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(connects) != 3 { // 3 edomains -> 3 pairs
		t.Fatalf("mesh made %d connections, want 3", len(connects))
	}
	if !f.MeshComplete() {
		t.Fatal("mesh not complete")
	}
	return f, addrs
}

func TestNextHopRouting(t *testing.T) {
	f, addrs := buildThreeEdomainFabric(t)

	// Same edomain: direct.
	next, err := f.NextHop(addrs["gwA"], addrs["snA"])
	if err != nil || next != addrs["snA"] {
		t.Fatalf("intra next = %v err %v", next, err)
	}
	// Non-gateway SN in A sending to SN in B: first to A's gateway.
	next, err = f.NextHop(addrs["snA"], addrs["snB"])
	if err != nil || next != addrs["gwA"] {
		t.Fatalf("toward gateway next = %v err %v", next, err)
	}
	// A's gateway: cross the pipe to B's gateway.
	next, err = f.NextHop(addrs["gwA"], addrs["snB"])
	if err != nil || next != addrs["gwB"] {
		t.Fatalf("cross next = %v err %v", next, err)
	}
	// B's gateway: deliver to the destination SN.
	next, err = f.NextHop(addrs["gwB"], addrs["snB"])
	if err != nil || next != addrs["snB"] {
		t.Fatalf("deliver next = %v err %v", next, err)
	}
	// Unknown endpoints fail.
	if _, err := f.NextHop(wire.MustAddr("fd00::ff"), addrs["snB"]); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := f.NextHop(addrs["snA"], wire.MustAddr("fd00::ff")); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestNextHopDirectConnectOptimization(t *testing.T) {
	f, addrs := buildThreeEdomainFabric(t)
	f.SetDirectConnect(true)
	next, err := f.NextHop(addrs["snA"], addrs["snB"])
	if err != nil || next != addrs["snB"] {
		t.Fatalf("direct next = %v err %v", next, err)
	}
}

func TestTransitCodecRoundTrip(t *testing.T) {
	finalDst := wire.MustAddr("fd00::b2")
	origSrc := wire.MustAddr("fd00::1")
	inner := wire.ILPHeader{Service: wire.SvcEcho, Conn: 42, Data: []byte("svc")}
	in := []byte("inner payload")
	svcData, payload, err := EncodeTransit(finalDst, origSrc, &inner, in)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &in[0] || len(payload) != len(in) {
		t.Fatal("EncodeTransit copied the payload; it rides as it is")
	}
	var tr wire.Transit
	if err := tr.DecodeFromBytes(svcData); err != nil {
		t.Fatal(err)
	}
	if tr.FinalDst != finalDst || tr.OrigSrc != origSrc {
		t.Fatalf("meta %v %v", tr.FinalDst, tr.OrigSrc)
	}
	if tr.Inner.Service != inner.Service || tr.Inner.Conn != inner.Conn || !bytes.Equal(tr.Inner.Data, inner.Data) {
		t.Fatalf("inner hdr %+v", tr.Inner)
	}
}

func TestTransitCodecMalformed(t *testing.T) {
	dst, src := wire.MustAddr("fd00::b2"), wire.MustAddr("fd00::1")
	// The largest inner header that nests, and one byte more.
	inner := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1, Data: make([]byte, wire.MaxTransitInnerData)}
	svcData, _, err := EncodeTransit(dst, src, &inner, nil)
	if err != nil || len(svcData) != wire.MaxServiceData {
		t.Fatalf("largest inner header: %d bytes of service data, err %v", len(svcData), err)
	}
	inner.Data = make([]byte, wire.MaxTransitInnerData+1)
	if _, _, err := EncodeTransit(dst, src, &inner, nil); !errors.Is(err, wire.ErrTransitTooBig) {
		t.Fatalf("oversized inner header: err = %v", err)
	}
	// Transit nests one deep, and carries nothing the pipe-terminus answers
	// on the word of the pipe peer.
	for _, svc := range []wire.ServiceID{wire.SvcPeering, wire.SvcHandoff, wire.SvcControl} {
		if _, _, err := EncodeTransit(dst, src, &wire.ILPHeader{Service: svc}, nil); !errors.Is(err, wire.ErrTransitInner) {
			t.Fatalf("inner %s: err = %v", svc, err)
		}
	}
}

// stubEnv is the part of sn.Env the Forwarder uses.
type stubEnv struct {
	sn.Env
	local wire.Addr
}

func (e stubEnv) LocalAddr() wire.Addr { return e.local }

// TestForwarderSplitHorizon: a transit packet whose next hop is the peer it
// came from is dropped and counted, and no rule is installed for it; the
// same packet from anywhere else is forwarded and cached.
func TestForwarderSplitHorizon(t *testing.T) {
	f, addrs := buildThreeEdomainFabric(t)
	reg := telemetry.NewRegistry()
	fw := NewForwarder(f, reg)
	outer, err := wire.TransitHeader(addrs["snB"], wire.MustAddr("fd00::1"), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 2})
	if err != nil {
		t.Fatal(err)
	}
	env := stubEnv{local: addrs["gwA"]}
	// gwA reaches snB through gwB: from snA the packet goes on, from gwB it
	// would go straight back.
	d, err := fw.HandlePacket(env, &sn.Packet{Src: addrs["snA"], Hdr: outer})
	if err != nil || len(d.Forwards) != 1 || d.Forwards[0].Dst != addrs["gwB"] || len(d.Rules) != 1 {
		t.Fatalf("from snA: %+v err %v", d, err)
	}
	d, err = fw.HandlePacket(env, &sn.Packet{Src: addrs["gwB"], Hdr: outer})
	if err != nil || len(d.Forwards) != 0 || len(d.Rules) != 0 {
		t.Fatalf("from gwB: %+v err %v", d, err)
	}
	if n := reg.Snapshot().Value("peering_split_horizon_drops_total"); n != 1 {
		t.Fatalf("peering_split_horizon_drops_total = %v, want 1", n)
	}
}

// TestRouteChangeNotifies: every route publish runs the subscribers, after
// the new routes are in place.
func TestRouteChangeNotifies(t *testing.T) {
	f := NewFabric()
	if err := f.AddEdomain("ed-a", wire.MustAddr("fd00::a1")); err != nil {
		t.Fatal(err)
	}
	if err := f.AddEdomain("ed-b", wire.MustAddr("fd00::b1")); err != nil {
		t.Fatal(err)
	}
	var seen []bool
	f.OnRouteChange(func() { seen = append(seen, f.DirectConnect() || f.MeshComplete()) })
	if err := f.EstablishMesh(func(a, b wire.Addr) error { return nil }); err != nil {
		t.Fatal(err)
	}
	f.SetDirectConnect(true)
	if len(seen) != 2 || !seen[0] || !seen[1] {
		t.Fatalf("route-change calls saw %v, want two, each after its publish", seen)
	}
}

func TestSettlementFreeLedger(t *testing.T) {
	f, _ := buildThreeEdomainFabric(t)
	f.RecordTransfer("ed-a", "ed-b", 1000)
	f.RecordTransfer("ed-a", "ed-b", 500)
	f.RecordTransfer("ed-b", "ed-a", 100)
	recs := f.Ledger()
	if len(recs) != 2 {
		t.Fatalf("ledger %v", recs)
	}
	for _, r := range recs {
		if r.FeesOwed != 0 {
			t.Fatalf("settlement-free violated: %+v", r)
		}
	}
	if recs[0].From != "ed-a" || recs[0].Bytes != 1500 || recs[0].Packets != 2 {
		t.Fatalf("record %+v", recs[0])
	}
}

// End-to-end: a packet crosses three SNs in two edomains via the
// SvcPeering forwarder and is decapsulated at the destination SN, where
// the echo module sees the ORIGINAL source and replies via transit.
func TestInterEdomainTransitEndToEnd(t *testing.T) {
	net := netsim.NewNetwork()
	fabric := NewFabric()

	mkSN := func(addr string) *sn.SN {
		tr, err := net.Attach(wire.MustAddr(addr))
		if err != nil {
			t.Fatal(err)
		}
		id, err := handshake.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		node, err := sn.New(sn.Config{Transport: tr, Identity: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		if err := node.Register(NewForwarder(fabric, node.Telemetry())); err != nil {
			t.Fatal(err)
		}
		return node
	}

	gwA := mkSN("fd00::a1")
	gwB := mkSN("fd00::b1")
	snB := mkSN("fd00::b2")

	// snB hosts a transit-aware echo module.
	echoed := make(chan *sn.Packet, 1)
	if err := snB.Register(&transitEcho{fabric: fabric, got: echoed}); err != nil {
		t.Fatal(err)
	}

	if err := fabric.AddEdomain("ed-a", gwA.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := fabric.AddEdomain("ed-b", gwB.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := fabric.RegisterAddr("ed-b", snB.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := fabric.EstablishMesh(func(a, b wire.Addr) error {
		if a == gwA.Addr() {
			return gwA.Connect(b)
		}
		return gwB.Connect(b)
	}); err != nil {
		t.Fatal(err)
	}
	// Intra-edomain pipes.
	if err := gwB.Connect(snB.Addr()); err != nil {
		t.Fatal(err)
	}

	// A host in ed-a, associated with gwA.
	htr, err := net.Attach(wire.MustAddr("fd00::1"))
	if err != nil {
		t.Fatal(err)
	}
	hid, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if err := fabric.RegisterAddr("ed-a", wire.MustAddr("fd00::1")); err != nil {
		t.Fatal(err)
	}
	ctrl := make(chan []byte, 1)
	hostMgr, err := pipe.New(pipe.Config{Transport: htr, Identity: hid,
		Handler: func(_ pipe.Sender, _ wire.Addr, hdr wire.ILPHeader, _, payload []byte) {
			if hdr.Service == wire.SvcControl {
				ctrl <- append([]byte(nil), payload...)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hostMgr.Close() })
	if err := hostMgr.Connect(gwA.Addr()); err != nil {
		t.Fatal(err)
	}

	// The host sends a transit-encapsulated echo request: finalDst snB.
	inner := wire.ILPHeader{Service: wire.SvcEcho, Conn: 9}
	svcData, payload, err := EncodeTransit(snB.Addr(), wire.MustAddr("fd00::1"), &inner, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	outer := wire.ILPHeader{Service: wire.SvcPeering, Conn: 9, Data: svcData}
	if err := hostMgr.Send(gwA.Addr(), &outer, payload); err != nil {
		t.Fatal(err)
	}

	select {
	case pkt := <-echoed:
		if pkt.Src != wire.MustAddr("fd00::1") {
			t.Fatalf("echo saw source %s, want original host", pkt.Src)
		}
		if string(pkt.Payload) != "ping" {
			t.Fatalf("payload %q", pkt.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("transit packet never reached destination SN")
	}

	// A transit packet whose way on leads back to its sender is dropped, and
	// the drop shows under its pinned name in gwA's control-plane metrics.
	back, _, err := EncodeTransit(wire.MustAddr("fd00::1"), wire.MustAddr("fd00::1"), &inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hostMgr.Send(gwA.Addr(), &wire.ILPHeader{Service: wire.SvcPeering, Conn: 10, Data: back}, nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		if gwA.Counters().Modules[0].Handled >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gwA's forwarder never saw the looping packet")
		}
	}
	req := []byte(`{"target":0,"op":"metrics"}`)
	if err := hostMgr.Send(gwA.Addr(), &wire.ILPHeader{Service: wire.SvcControl, Conn: 11}, req); err != nil {
		t.Fatal(err)
	}
	select {
	case body := <-ctrl:
		var resp control.Response
		var snap telemetry.Snapshot
		if err := json.Unmarshal(body, &resp); err != nil || !resp.OK {
			t.Fatalf("metrics op: %s err %v", body, err)
		}
		if err := json.Unmarshal(resp.Data, &snap); err != nil {
			t.Fatal(err)
		}
		if n := snap.Value("peering_split_horizon_drops_total"); n != 1 {
			t.Fatalf("peering_split_horizon_drops_total = %v, want 1", n)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no answer to the metrics op")
	}

	// The settlement-free ledger saw the crossing.
	recs := fabric.Ledger()
	if len(recs) == 0 {
		t.Fatal("no ledger records for transit")
	}
	for _, r := range recs {
		if r.FeesOwed != 0 {
			t.Fatalf("fees on settlement-free peering: %+v", r)
		}
	}
}

// transitEcho records the decapsulated packet it receives.
type transitEcho struct {
	fabric *Fabric
	got    chan *sn.Packet
}

func (e *transitEcho) Service() wire.ServiceID { return wire.SvcEcho }
func (e *transitEcho) Name() string            { return "transit-echo" }
func (e *transitEcho) Version() string         { return "1" }
func (e *transitEcho) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	cp := *pkt
	cp.Payload = append([]byte(nil), pkt.Payload...)
	e.got <- &cp
	return sn.Decision{}, nil
}
