package pipe

import (
	"crypto/ed25519"
	"sync"
	"testing"

	"interedge/internal/handshake"
	"interedge/internal/psp"
	"interedge/internal/wire"
)

// syncLoop is a loopback transport whose Send runs the receiving stack's
// receive path on the caller's goroutine, before it returns: whatever a
// datagram sets off at the far end — a reply, a Connect returning, the first
// data packet — has happened by the time the sender's Send comes back. It
// keeps the transport contract (the receiver gets its own copy).
type syncLoop struct {
	addr    wire.Addr           // the one address of a single-address transport; invalid for a mux
	deliver func(wire.Datagram) // the peer stack's receive path
	rx      chan wire.Datagram  // never fed: the stack's own receive loop idles on it
	once    sync.Once
}

func newSyncLoop(addr wire.Addr) *syncLoop {
	return &syncLoop{addr: addr, rx: make(chan wire.Datagram)}
}

func (l *syncLoop) LocalAddr() wire.Addr { return l.addr }

func (l *syncLoop) Send(dg wire.Datagram) error {
	if l.addr.IsValid() {
		dg.Src = l.addr
	}
	dg.Payload = wire.RxCopy(dg.Payload)
	l.deliver(dg)
	return nil
}

func (l *syncLoop) Receive() <-chan wire.Datagram { return l.rx }

func (l *syncLoop) Close() error {
	l.once.Do(func() { close(l.rx) })
	return nil
}

// dispatchInto returns e's receive path for one datagram, run on the
// caller's goroutine: one worker cycle, dispatch and then egress flush.
func dispatchInto(e *Engine) func(wire.Datagram) {
	return func(dg wire.Datagram) {
		var scratch psp.Scratch
		eg := e.newEgress()
		e.dispatchBatch(eg, &rxRun{dgs: []wire.Datagram{dg}}, &scratch)
		eg.flushAll()
	}
}

// TestPipeIsInstalledBeforeMsg2Leaves: a responder must have the pipe in its
// table before the reply that announces it is on the wire. Over a synchronous
// loopback everything msg2 causes happens inside the responder's Send — the
// initiator completes, its Connect is released, and (from OnPeerUp, the first
// thing that knows) it sends its first data packet, which reaches the
// responder while that Send is still on the stack. A responder that replies
// first and installs second has no pipe for it, every time; one that installs
// first delivers it, every time. One body, one stack, driven two ways:
// "manager" is two nodes from New on their own single-address transports,
// "engine" two endpoints of one engine on a shared transport.
func TestPipeIsInstalledBeforeMsg2Leaves(t *testing.T) {
	a, b := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
	identity := func(t *testing.T) handshake.Identity {
		id, err := handshake.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	for _, stack := range []struct {
		name string
		// build brings up initiator a and responder b; onUp is a's OnPeerUp
		// and got is b's packet handler. It returns a's Connect to b and a's
		// Send of one data packet to b.
		build func(t *testing.T, onUp PeerUpHandler, got PacketHandler) (connect func() error, send func(*wire.ILPHeader, []byte) error)
	}{
		{"manager", func(t *testing.T, onUp PeerUpHandler, got PacketHandler) (func() error, func(*wire.ILPHeader, []byte) error) {
			ta, tb := newSyncLoop(a), newSyncLoop(b)
			ma, err := New(Config{Transport: ta, Identity: identity(t), RxWorkers: 1, OnPeerUp: onUp})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ma.Close() })
			mb, err := New(Config{Transport: tb, Identity: identity(t), RxWorkers: 1, Handler: got})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mb.Close() })
			ta.deliver, tb.deliver = dispatchInto(mb.eng), dispatchInto(ma.eng)
			return func() error { return ma.Connect(b) },
				func(hdr *wire.ILPHeader, payload []byte) error { return ma.Send(b, hdr, payload) }
		}},
		{"engine", func(t *testing.T, onUp PeerUpHandler, got PacketHandler) (func() error, func(*wire.ILPHeader, []byte) error) {
			tr := newSyncLoop(wire.Addr{})
			e, err := NewEngine(EngineConfig{Transport: tr, RxWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			tr.deliver = dispatchInto(e)
			if err := e.AddEndpoint(EndpointConfig{Addr: a, Identity: identity(t), OnPeerUp: onUp}); err != nil {
				t.Fatal(err)
			}
			if err := e.AddEndpoint(EndpointConfig{Addr: b, Identity: identity(t), Handler: got}); err != nil {
				t.Fatal(err)
			}
			return func() error { return e.Connect(a, b) },
				func(hdr *wire.ILPHeader, payload []byte) error { return e.Send(a, b, hdr, payload) }
		}},
	} {
		t.Run(stack.name, func(t *testing.T) {
			// Everything below runs on this goroutine, nested inside Connect.
			var send func(*wire.ILPHeader, []byte) error
			var sendErr error
			sent, delivered := 0, 0
			connect, send := stack.build(t,
				func(wire.Addr, ed25519.PublicKey) {
					sent++
					sendErr = send(&wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("first"))
				},
				func(_ Sender, src wire.Addr, hdr wire.ILPHeader, _, payload []byte) {
					if src == a && hdr.Conn == 1 && string(payload) == "first" {
						delivered++
					}
				})
			if err := connect(); err != nil {
				t.Fatalf("Connect: %v", err)
			}
			if sent != 1 || sendErr != nil {
				t.Fatalf("initiator sent %d first packets (err %v), want 1", sent, sendErr)
			}
			if delivered != 1 {
				t.Fatalf("the initiator's first packet, sent the moment its Connect completed, found no pipe at the responder (%d delivered)", delivered)
			}
		})
	}
}
