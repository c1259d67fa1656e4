package lab

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lookup"
	"interedge/internal/services/echo"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// TestFigure1Topology reproduces Figure 1 as executable structure: client
// hosts with ILP host stacks and pipes to their first-hop SNs, SN-to-SN
// pipes, a pass-through SN imposing an operator service, and a server
// host behind its own SN — then passes traffic end to end through every
// component.
func TestFigure1Topology(t *testing.T) {
	topo := New()
	defer topo.Close()

	// Two edomains: the client side and the server side.
	setup := func(node *sn.SN, ed *Edomain) error {
		return node.Register(ipfwd.New(topo.Global, topo.Fabric))
	}
	edClient, err := topo.AddEdomain("ed-client", 2, setup)
	if err != nil {
		t.Fatal(err)
	}
	edServer, err := topo.AddEdomain("ed-server", 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}

	// Client hosts (Figure 1 shows two apps on a client host; two conns
	// model that) and the server host.
	client, err := topo.NewHost(edClient, 1)
	if err != nil {
		t.Fatal(err)
	}
	server, err := topo.NewHost(edServer, 0)
	if err != nil {
		t.Fatal(err)
	}

	inbox := make(chan host.Message, 16)
	server.OnService(wire.SvcIPFwd, func(msg host.Message) { inbox <- msg.Clone() })

	// App A and App B each open their own connection over the same host
	// stack and pipes.
	for _, app := range []string{"app-a", "app-b"} {
		conn, err := client.NewConn(wire.SvcIPFwd)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send(ipfwd.DestData(server.Addr()), []byte(app)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case msg := <-inbox:
			seen[string(msg.Payload)] = true
		case <-time.After(3 * time.Second):
			t.Fatalf("missing app traffic; got %v", seen)
		}
	}

	// The path crossed both edomains via gateway pipes: the client-side
	// gateway carries transit traffic.
	gwCounters := edClient.Gateway().Telemetry().Snapshot()
	if gwCounters.Value("sn_rx_packets_total") == 0 {
		t.Fatal("client-edomain gateway saw no traffic")
	}
	if !topo.Fabric.MeshComplete() {
		t.Fatal("mesh incomplete")
	}
	_ = edServer
}

// TestPassThroughSNChain models §3.2's operator-imposed services: an
// enterprise pass-through SN terminates ILP, applies its service, and
// forwards to the next-hop SN where client-invoked services run.
func TestPassThroughSNChain(t *testing.T) {
	topo := New()
	defer topo.Close()

	ed, err := topo.AddEdomain("ed-a", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// SN 0: enterprise pass-through imposing a relabeling "firewall"; SN 1:
	// the client-chosen SN running echo.
	if err := ed.SNs[1].Register(echo.New()); err != nil {
		t.Fatal(err)
	}
	passThrough := &relabelModule{next: ed.SNs[1].Addr()}
	if err := ed.SNs[0].Register(passThrough); err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(nil, []byte("through the chain")); err != nil {
		t.Fatal(err)
	}
	// The echo reply comes back via SN 1 (which replies to its requester,
	// the pass-through SN) and then the pass-through returns it.
	select {
	case msg := <-conn.Receive():
		if string(msg.Payload) != "through the chain" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no reply through pass-through chain")
	}
}

// relabelModule forwards echo-service packets to the next-hop SN and
// returns replies to the original client — a minimal operator-imposed
// pass-through.
type relabelModule struct {
	next    wire.Addr
	pending map[wire.ConnectionID]wire.Addr
}

func (m *relabelModule) Service() wire.ServiceID { return wire.SvcEcho }
func (m *relabelModule) Name() string            { return "pass-through" }
func (m *relabelModule) Version() string         { return "1" }
func (m *relabelModule) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if m.pending == nil {
		m.pending = make(map[wire.ConnectionID]wire.Addr)
	}
	if pkt.Src == m.next {
		// Reply path: return to the recorded client.
		client, ok := m.pending[pkt.Hdr.Conn]
		if !ok {
			return sn.Decision{}, nil
		}
		return sn.Decision{Forwards: []sn.Forward{{Dst: client}}}, nil
	}
	m.pending[pkt.Hdr.Conn] = pkt.Src
	return sn.Decision{Forwards: []sn.Forward{{Dst: m.next}}}, nil
}

// TestHostMobilityAcrossEdomains: a host moves between edomains; the
// lookup record follows it, and ipfwd reaches it at the new location.
func TestHostMobilityAcrossEdomains(t *testing.T) {
	topo := New()
	defer topo.Close()
	setup := func(node *sn.SN, ed *Edomain) error {
		return node.Register(ipfwd.New(topo.Global, topo.Fabric))
	}
	edA, err := topo.AddEdomain("ed-a", 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	edB, err := topo.AddEdomain("ed-b", 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	mobile, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := topo.NewHost(edB, 0)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(chan host.Message, 4)
	mobile.OnService(wire.SvcIPFwd, func(msg host.Message) { inbox <- msg.Clone() })

	send := func(tag string) {
		conn, err := sender.NewConn(wire.SvcIPFwd)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send(ipfwd.DestData(mobile.Addr()), []byte(tag)); err != nil {
			t.Fatal(err)
		}
	}
	send("before-move")
	select {
	case msg := <-inbox:
		if string(msg.Payload) != "before-move" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("pre-move delivery failed")
	}

	// Move to ed-b.
	if err := topo.MoveHost(mobile, edB, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := topo.Global.ResolveAddress(mobile.Addr())
	if err != nil || rec.SNs[0] != edB.SNs[0].Addr() {
		t.Fatalf("lookup after move: %+v err %v", rec, err)
	}
	send("after-move")
	select {
	case msg := <-inbox:
		if string(msg.Payload) != "after-move" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("post-move delivery failed")
	}
}

// TestLookupRecordsForHosts verifies NewHost publishes a signed,
// resolvable address record (§3.2 name services).
func TestLookupRecordsForHosts(t *testing.T) {
	topo := New()
	defer topo.Close()
	ed, err := topo.AddEdomain("ed-a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := topo.Global.ResolveAddress(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.SNs) != 1 || rec.SNs[0] != ed.SNs[0].Addr() {
		t.Fatalf("record %+v", rec)
	}
	if !rec.Owner.Equal(h.Identity().PublicKey()) {
		t.Fatal("record owner mismatch")
	}
	_ = lookup.GroupID("")
}
