package relay

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/wire"
)

// world: one edomain with two SNs — SN 0 is the ingress (client side),
// SN 1 is the egress (destination side). Both run the relay module.
func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain, *KeyDirectory, *Module, *Module) {
	t.Helper()
	topo := lab.New()
	dir := NewKeyDirectory()
	ed, err := topo.AddEdomain("ed-a", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mods []*Module
	for _, node := range ed.SNs {
		m, err := New(dir, node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Register(m); err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, dir, mods[0], mods[1]
}

func TestRelayDeliversToDestination(t *testing.T) {
	topo, ed, dir, _, _ := newWorld(t)
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	server, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	server.OnService(wire.SvcRelay, func(msg host.Message) { got <- msg.Clone() })

	if _, err := Send(client, dir, ed.SNs[1].Addr(), server.Addr(), []byte("GET /")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "GET /" {
			t.Fatalf("payload %q", msg.Payload)
		}
		// The destination sees the EGRESS SN as the source, not the client.
		if msg.Src != ed.SNs[1].Addr() {
			t.Fatalf("destination saw source %s, want egress SN %s", msg.Src, ed.SNs[1].Addr())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

// The defining property: the egress SN (and thus the destination) never
// observes the client's address; the ingress never opens the envelope.
func TestEgressNeverSeesClient(t *testing.T) {
	topo, ed, dir, _, egressMod := newWorld(t)
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	server, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan host.Message, 1)
	server.OnService(wire.SvcRelay, func(msg host.Message) { delivered <- msg.Clone() })
	if _, err := Send(client, dir, ed.SNs[1].Addr(), server.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
	for _, src := range egressMod.SeenSources() {
		if src == client.Addr() {
			t.Fatal("egress SN observed the client address")
		}
	}
}

func TestReplyPathReachesClient(t *testing.T) {
	topo, ed, dir, _, _ := newWorld(t)
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	server, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan host.Message, 1)
	server.OnService(wire.SvcRelay, func(msg host.Message) { delivered <- msg.Clone() })

	conn, err := Send(client, dir, ed.SNs[1].Addr(), server.Addr(), []byte("request"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var req host.Message
	select {
	case req = <-delivered:
	case <-time.After(3 * time.Second):
		t.Fatal("request never delivered")
	}
	if err := Reply(server, req, []byte("response")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-conn.Receive():
		if string(msg.Payload) != "response" {
			t.Fatalf("payload %q", msg.Payload)
		}
		// The client sees only its ingress SN.
		if msg.Src != ed.SNs[0].Addr() {
			t.Fatalf("client saw source %s, want ingress SN", msg.Src)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("reply never arrived")
	}
}

func TestSendToUnknownEgressFails(t *testing.T) {
	topo, ed, dir, _, _ := newWorld(t)
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Send(client, dir, wire.MustAddr("fd00::dead"), client.Addr(), nil); err == nil {
		t.Fatal("send to egress with no published key succeeded")
	}
}

func TestReplyWithWrongMessageRejected(t *testing.T) {
	topo, ed, _, _, _ := newWorld(t)
	server, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	bogus := host.Message{Hdr: wire.ILPHeader{Service: wire.SvcRelay, Data: []byte{kindIngress}}}
	if err := Reply(server, bogus, nil); err != ErrBadHeader {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}
