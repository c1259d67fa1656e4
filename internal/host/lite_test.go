package host

import (
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// TestLiteHostPipesIsAWorkingHandle: a lite host's Pipes() is its endpoint
// on the shared engine. It connects and sends, and a rebind through it moves
// the host's pipe on the engine — the successor, holding the exported keys,
// opens what the host sends next. Closing the host removes only its
// endpoint.
func TestLiteHostPipesIsAWorkingHandle(t *testing.T) {
	net := netsim.NewNetwork()
	mux := net.NewMux(0)
	eng, err := pipe.NewEngine(pipe.EngineConfig{Transport: mux, RxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	addr := wire.MustAddr("fd00::1")
	if err := mux.AddPort(addr); err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewOnEngine(eng, Config{Addr: addr, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	// Two plain pipe nodes stand in for a draining SN and its successor.
	rx := make(chan string, 4)
	peerNode := func(a string) *pipe.Manager {
		tr, err := net.Attach(wire.MustAddr(a))
		if err != nil {
			t.Fatal(err)
		}
		pid, err := handshake.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		m, err := pipe.New(pipe.Config{Transport: tr, Identity: pid,
			Handler: func(_ pipe.Sender, src wire.Addr, _ wire.ILPHeader, _, payload []byte) {
				rx <- a + " " + src.String() + " " + string(payload)
			}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	old, succ := peerNode("fd00::100"), peerNode("fd00::200")
	expect := func(want string) {
		t.Helper()
		select {
		case got := <-rx:
			if got != want {
				t.Fatalf("received %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("nothing received, want %q", want)
		}
	}

	pipes := h.Pipes()
	if pipes == nil || pipes.LocalAddr() != addr {
		t.Fatalf("Pipes() = %v, want the host's endpoint", pipes)
	}
	if err := pipes.Connect(old.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if !eng.HasPeer(addr, old.LocalAddr()) {
		t.Fatal("the handle's pipe is not on the shared engine")
	}
	hdr := wire.ILPHeader{Service: wire.SvcNull, Conn: 1}
	if err := pipes.Send(old.LocalAddr(), &hdr, []byte("before")); err != nil {
		t.Fatal(err)
	}
	expect("fd00::100 fd00::1 before")

	state, err := old.ExportPeer(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := succ.ImportPeer(state); err != nil {
		t.Fatal(err)
	}
	if err := pipes.RebindPeer(old.LocalAddr(), succ.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if eng.HasPeer(addr, old.LocalAddr()) || !eng.HasPeer(addr, succ.LocalAddr()) {
		t.Fatal("the rebind did not move the host's pipe on the engine")
	}
	if err := pipes.Send(succ.LocalAddr(), &hdr, []byte("after")); err != nil {
		t.Fatal(err)
	}
	expect("fd00::200 fd00::1 after")

	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if eng.HasPeer(addr, succ.LocalAddr()) {
		t.Fatal("closing the host left its pipe on the engine")
	}
	if err := eng.AddEndpoint(pipe.EndpointConfig{Addr: addr, Identity: id}); err != nil {
		t.Fatalf("the engine stopped serving after a lite host closed: %v", err)
	}
}
