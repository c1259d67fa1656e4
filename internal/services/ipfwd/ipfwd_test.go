package ipfwd

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain, *lab.Edomain) {
	t.Helper()
	topo := lab.New()
	setup := func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(New(topo.Global, topo.Fabric))
	}
	edA, err := topo.AddEdomain("ed-a", 2, setup)
	if err != nil {
		t.Fatal(err)
	}
	edB, err := topo.AddEdomain("ed-b", 2, setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, edA, edB
}

func await(t *testing.T, ch chan host.Message, want string) {
	t.Helper()
	select {
	case msg := <-ch:
		if string(msg.Payload) != want {
			t.Fatalf("payload %q, want %q", msg.Payload, want)
		}
	case <-time.After(3 * time.Second):
		t.Fatalf("never received %q", want)
	}
}

func TestDeliveryViaSharedSN(t *testing.T) {
	topo, edA, _ := newWorld(t)
	a, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(chan host.Message, 4)
	b.OnService(wire.SvcIPFwd, func(msg host.Message) { inbox <- msg.Clone() })
	conn, err := a.NewConn(wire.SvcIPFwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(DestData(b.Addr()), []byte("same-sn")); err != nil {
		t.Fatal(err)
	}
	await(t, inbox, "same-sn")
}

func TestDeliveryAcrossSNsSameEdomain(t *testing.T) {
	topo, edA, _ := newWorld(t)
	a, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topo.NewHost(edA, 1)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(chan host.Message, 4)
	b.OnService(wire.SvcIPFwd, func(msg host.Message) { inbox <- msg.Clone() })
	conn, err := a.NewConn(wire.SvcIPFwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(DestData(b.Addr()), []byte("cross-sn")); err != nil {
		t.Fatal(err)
	}
	await(t, inbox, "cross-sn")
}

func TestDeliveryAcrossEdomains(t *testing.T) {
	topo, edA, edB := newWorld(t)
	a, err := topo.NewHost(edA, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topo.NewHost(edB, 1)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(chan host.Message, 4)
	b.OnService(wire.SvcIPFwd, func(msg host.Message) { inbox <- msg.Clone() })
	conn, err := a.NewConn(wire.SvcIPFwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(DestData(b.Addr()), []byte("inter-edomain")); err != nil {
		t.Fatal(err)
	}
	await(t, inbox, "inter-edomain")
}

// Steady-state ipfwd flows ride the decision cache.
func TestFlowCachedAfterFirstPacket(t *testing.T) {
	topo, edA, _ := newWorld(t)
	a, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(chan host.Message, 16)
	b.OnService(wire.SvcIPFwd, func(msg host.Message) { inbox <- msg.Clone() })
	conn, err := a.NewConn(wire.SvcIPFwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(DestData(b.Addr()), []byte("first")); err != nil {
		t.Fatal(err)
	}
	await(t, inbox, "first")
	for i := 0; i < 4; i++ {
		if err := conn.Send(DestData(b.Addr()), []byte("next")); err != nil {
			t.Fatal(err)
		}
		await(t, inbox, "next")
	}
	if c := edA.SNs[0].Telemetry().Snapshot(); c.Value("sn_fastpath_hits_total") < 4 {
		t.Fatalf("FastPathHits = %v, want >= 4", c.Value("sn_fastpath_hits_total"))
	}
}

func TestUnknownDestinationErrors(t *testing.T) {
	topo, edA, _ := newWorld(t)
	a, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := a.NewConn(wire.SvcIPFwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(DestData(wire.MustAddr("fd00::dead")), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for edA.SNs[0].Telemetry().Snapshot().Value("sn_module_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown destination not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDestDataRoundTrip(t *testing.T) {
	addr := wire.MustAddr("fd00::42")
	got, err := DecodeDest(DestData(addr))
	if err != nil || got != addr {
		t.Fatalf("got %v err %v", got, err)
	}
	if _, err := DecodeDest([]byte("short")); err == nil {
		t.Fatal("short dest accepted")
	}
}
