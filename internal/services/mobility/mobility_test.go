package mobility

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain, *Registry) {
	t.Helper()
	topo := lab.New()
	reg := NewRegistry()
	ed, err := topo.AddEdomain("ed-a", 2, func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(New(reg))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, reg
}

func TestRegisterAndLocate(t *testing.T) {
	topo, ed, _ := newWorld(t)
	mobile, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(mobile); err != nil {
		t.Fatal(err)
	}
	seeker, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	hostAddr, snAddr, err := Locate(seeker, mobile.Identity().PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if hostAddr != mobile.Addr() || snAddr != ed.SNs[0].Addr() {
		t.Fatalf("located %s@%s", hostAddr, snAddr)
	}
}

func TestLocateUnknownFails(t *testing.T) {
	topo, ed, _ := newWorld(t)
	seeker, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Locate(seeker, stranger.Identity().PublicKey()); err == nil {
		t.Fatal("located unregistered host")
	}
}

// The headline scenario: a host moves to another SN; correspondents find
// it at its new attachment and traffic flows there.
func TestMoveUpdatesLocationAndTrafficFollows(t *testing.T) {
	topo, ed, _ := newWorld(t)
	mobile, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(mobile); err != nil {
		t.Fatal(err)
	}
	// Move: associate with SN 1, make it the preferred first hop, and
	// re-register.
	if err := mobile.Associate(ed.SNs[1].Addr()); err != nil {
		t.Fatal(err)
	}
	mobile.Disassociate(ed.SNs[0].Addr())
	if err := Register(mobile); err != nil {
		t.Fatal(err)
	}
	seeker, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	hostAddr, snAddr, err := Locate(seeker, mobile.Identity().PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if snAddr != ed.SNs[1].Addr() {
		t.Fatalf("post-move SN = %s, want %s", snAddr, ed.SNs[1].Addr())
	}
	// Traffic reaches the mobile host via its new SN (direct host send
	// through the located SN's pipe).
	got := make(chan host.Message, 1)
	mobile.OnService(wire.SvcEcho, func(msg host.Message) { got <- msg.Clone() })
	conn, err := seeker.NewConn(wire.SvcEcho, host.Via(snAddr))
	if err != nil {
		t.Fatal(err)
	}
	_ = conn
	// Seeker has no echo module on SN1; send via SN pipes directly to show
	// reachability of the located address.
	if err := seeker.Pipes().Connect(hostAddr); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 99}
	if err := seeker.Pipes().Send(hostAddr, &hdr, []byte("found you")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "found you" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("traffic never reached moved host")
	}
}

func TestSequenceIncrementsOnMove(t *testing.T) {
	topo, ed, reg := newWorld(t)
	mobile, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(mobile); err != nil {
		t.Fatal(err)
	}
	if err := mobile.Associate(ed.SNs[1].Addr()); err != nil {
		t.Fatal(err)
	}
	mobile.Disassociate(ed.SNs[0].Addr())
	if err := Register(mobile); err != nil {
		t.Fatal(err)
	}
	loc, ok := reg.lookup(mobile.Identity().PublicKey())
	if !ok || loc.Seq != 1 {
		t.Fatalf("loc %+v ok=%v", loc, ok)
	}
}
