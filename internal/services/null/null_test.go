package null

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain) {
	t.Helper()
	topo := lab.New()
	ed, err := topo.AddEdomain("ed-a", 1, func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(New())
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed
}

func TestBounceToSourceWithoutEgress(t *testing.T) {
	topo, ed := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcNull)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(nil, []byte("boomerang")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-conn.Receive():
		if string(msg.Payload) != "boomerang" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestForwardToEgress(t *testing.T) {
	topo, ed := newWorld(t)
	src, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	egress, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	egress.OnService(wire.SvcNull, func(msg host.Message) { got <- msg.Clone() })
	conn, err := src.NewConn(wire.SvcNull)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(EgressData(egress.Addr()), []byte("onward")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "onward" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

// Every packet takes the slow path: null never installs cache rules (the
// Table 1 workload depends on this).
func TestNoCacheRulesInstalled(t *testing.T) {
	topo, ed := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcNull)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		if err := conn.Send(nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-conn.Receive():
		case <-time.After(3 * time.Second):
			t.Fatal("timeout")
		}
	}
	c := ed.SNs[0].Telemetry().Snapshot()
	if c.Value("sn_fastpath_hits_total") != 0 {
		t.Fatalf("FastPathHits = %v, want 0", c.Value("sn_fastpath_hits_total"))
	}
	if c.Value("sn_slowpath_sent_total") != 5 {
		t.Fatalf("SlowPathSent = %v, want 5", c.Value("sn_slowpath_sent_total"))
	}
}
