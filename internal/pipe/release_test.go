package pipe

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/wire"
)

// TestRxPacketReleaseOnce: Release gives the whole received datagram back,
// takes Payload away, and a second call gives nothing back a second time —
// two later copies never share the buffer.
func TestRxPacketReleaseOnce(t *testing.T) {
	dg := wire.RxCopy(make([]byte, 500))
	p := RxPacket{Payload: dg[40:], buf: dg}
	p.Release()
	if p.Payload != nil {
		t.Error("Payload is still reachable through the packet after Release")
	}
	p.Release()
	a, b := wire.RxCopy(make([]byte, 500)), wire.RxCopy(make([]byte, 500))
	if &a[0] == &b[0] {
		t.Fatal("a buffer released twice was handed out twice")
	}
	var never RxPacket // a packet that did not come off a transport
	never.Release()
}

// TestConsumedDatagramsGoBackToThePool: what the pipe layer consumes itself
// never becomes garbage. Each round sends the receiver a forged ILP datagram
// (fails to open), a liveness probe (answered below the handler; the ack is
// consumed by the sender's own manager) and one good packet to wait on. Only
// the good packet's buffer leaves the pool — its handler owns it — so a round
// costs that one allocation on either pipe stack, not four.
func TestConsumedDatagramsGoBackToThePool(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes sync.Pool retention and alloc counts")
	}
	dst := wire.MustAddr("fd00::2")
	for _, stack := range []struct {
		name string
		// receiver attaches a node at dst whose handler is got.
		receiver func(t *testing.T, net *netsim.Network, id handshake.Identity, got PacketHandler)
	}{
		{"manager", func(t *testing.T, net *netsim.Network, id handshake.Identity, got PacketHandler) {
			tr, err := net.Attach(dst)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(Config{Transport: tr, Identity: id, Handler: got})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
		}},
		{"engine", func(t *testing.T, net *netsim.Network, id handshake.Identity, got PacketHandler) {
			mux := net.NewMux(0)
			if err := mux.AddPort(dst); err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(EngineConfig{Transport: mux})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			if err := e.AddEndpoint(EndpointConfig{Addr: dst, Identity: id, Handler: got}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(stack.name, func(t *testing.T) {
			net := netsim.NewNetwork()
			id, err := handshake.NewIdentity()
			if err != nil {
				t.Fatal(err)
			}
			arrived := make(chan struct{}, 1)
			stack.receiver(t, net, id, func(Sender, wire.Addr, wire.ILPHeader, []byte, []byte) { arrived <- struct{}{} })
			src := newNode(t, net, "fd00::1")
			if err := src.mgr.Connect(dst); err != nil {
				t.Fatal(err)
			}
			// A forgery good enough to be decrypted: the pipe's own SPI, a
			// fresh IV, a plausible length — and no valid tag.
			forged := make([]byte, 91)
			forged[0] = byte(wire.FrameILP)
			binary.BigEndian.PutUint32(forged[1:], src.mgr.peer(dst).baseSPI)
			binary.BigEndian.PutUint64(forged[5:], 1<<40)
			binary.BigEndian.PutUint16(forged[13:], 30)
			probe := wire.ILPHeader{Service: wire.SvcPipeProbe}
			good := wire.ILPHeader{Service: wire.SvcNull, Conn: 1}
			payload := make([]byte, 60)
			lost := time.After(30 * time.Second)
			back := src.mgr.peer(dst)
			acks := back.rxPackets.Load()
			round := func() {
				if err := src.mgr.cfg.Transport.Send(wire.Datagram{Dst: dst, Payload: forged}); err != nil {
					t.Fatal(err)
				}
				if err := src.mgr.Send(dst, &probe, nil); err != nil {
					t.Fatal(err)
				}
				if err := src.mgr.Send(dst, &good, payload); err != nil {
					t.Fatal(err)
				}
				select {
				case <-arrived:
				case <-lost:
					t.Fatal("the good packet never arrived")
				}
				// The round ends when the sender's own manager has consumed
				// the ack (the only thing the receiver ever sends it).
				for acks++; back.rxPackets.Load() < acks; runtime.Gosched() {
					select {
					case <-lost:
						t.Fatal("the probe was never acknowledged")
					default:
					}
				}
			}
			for i := 0; i < 64; i++ {
				round()
			}
			allocs := testing.AllocsPerRun(300, round)
			t.Logf("forged + probe + ack + good packet: %.2f allocations", allocs)
			if allocs > 1 {
				t.Errorf("a round allocated %.2f times, want <= 1 (the good packet's buffer, which its handler keeps)", allocs)
			}
		})
	}
}
