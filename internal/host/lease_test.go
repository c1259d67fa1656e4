package host

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// TestHandlerLeaseEndsWithTheCall: what the host hands a ServiceHandler or a
// FastHandler is valid for the call only — the host gives its receive
// buffer back when the handler returns. A handler that clones what it keeps
// reads it intact after a thousand later packets have come through the same
// pipe and receive worker. In race builds, where a released buffer is
// overwritten at once (wire.RxRelease), what it kept without cloning no
// longer reads what was sent, which shows that the lease ended.
func TestHandlerLeaseEndsWithTheCall(t *testing.T) {
	for _, tc := range []struct {
		name string
		svc  wire.ServiceID
		// receiver attaches a host whose handler passes every delivery to
		// keep, and returns the node that sends to it, its address, and a
		// stop that returns once the host's receive workers have exited.
		receiver func(t *testing.T, net *netsim.Network, keep func(Message)) (*pipe.Manager, wire.Addr, func())
	}{
		{"ServiceHandler on a standalone host", wire.SvcPubSub, func(t *testing.T, net *netsim.Network, keep func(Message)) (*pipe.Manager, wire.Addr, func()) {
			node := newSN(t, net, "fd00::100")
			h := newHost(t, net, "fd00::1")
			if err := h.Associate(node.Addr()); err != nil {
				t.Fatal(err)
			}
			h.OnService(wire.SvcPubSub, keep)
			return node.Pipes(), h.Addr(), func() { h.Close() }
		}},
		{"FastHandler on a lite host", wire.SvcNull, func(t *testing.T, net *netsim.Network, keep func(Message)) (*pipe.Manager, wire.Addr, func()) {
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
			h, err := NewOnEngine(eng, Config{Addr: addr, Identity: id,
				FastHandler: func(src wire.Addr, hdr wire.ILPHeader, payload []byte) {
					keep(Message{Src: src, Hdr: hdr, Payload: payload})
				}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { h.Close() })
			tr, err := net.Attach(wire.MustAddr("fd00::100"))
			if err != nil {
				t.Fatal(err)
			}
			pid, err := handshake.NewIdentity()
			if err != nil {
				t.Fatal(err)
			}
			peer, err := pipe.New(pipe.Config{Transport: tr, Identity: pid})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { peer.Close() })
			if err := h.Pipes().Connect(peer.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			return peer, addr, func() { eng.Close() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type kept struct{ msg, clone Message }
			got := make(chan kept, 1)
			sender, dst, stop := tc.receiver(t, netsim.NewNetwork(), func(msg Message) { got <- kept{msg, msg.Clone()} })
			payloadOf := func(i int) []byte {
				p := make([]byte, 16+i%700)
				for j := range p {
					p[j] = byte(i*13 + j*5)
				}
				return p
			}
			dataOf := func(i int) []byte { return []byte(fmt.Sprintf("svc-data-%04d", i)) }
			const later = 1000
			all := make([]kept, 0, later+1)
			for i := 0; i <= later; i++ {
				hdr := wire.ILPHeader{Service: tc.svc, Conn: 1, Data: dataOf(i)}
				if err := sender.Send(dst, &hdr, payloadOf(i)); err != nil {
					t.Fatal(err)
				}
				select {
				case k := <-got:
					all = append(all, k)
				case <-time.After(3 * time.Second):
					t.Fatalf("packet %d never delivered", i)
				}
			}
			// The last lease ends after its handler has sent, and a buffer
			// kept without a clone may since have carried that packet, so
			// the reads below wait until the receive workers are gone.
			stop()
			for i, k := range all {
				if !bytes.Equal(k.clone.Payload, payloadOf(i)) || !bytes.Equal(k.clone.Hdr.Data, dataOf(i)) {
					t.Fatalf("clone %d no longer reads what was sent: header data %q", i, k.clone.Hdr.Data)
				}
				if raceEnabled && bytes.Equal(k.msg.Payload, payloadOf(i)) {
					t.Fatalf("payload %d, kept without a clone, still reads what was sent after its handler returned: the lease did not end", i)
				}
			}
		})
	}
}

// TestMessageClone: a clone shares no byte with the message it was made
// from, and keeps a nil slice nil.
func TestMessageClone(t *testing.T) {
	buf := []byte("datapayload")
	m := Message{Hdr: wire.ILPHeader{Service: wire.SvcNull, Conn: 3, Data: buf[:4]}, Payload: buf[4:]}
	c := m.Clone()
	for k := range buf {
		buf[k] = 0
	}
	if string(c.Hdr.Data) != "data" || string(c.Payload) != "payload" || c.Hdr.Conn != 3 {
		t.Fatalf("clone reads %q / %q after the original was overwritten", c.Hdr.Data, c.Payload)
	}
	if c = (Message{Payload: []byte("p")}).Clone(); c.Hdr.Data != nil || string(c.Payload) != "p" {
		t.Fatalf("clone of a message without header data: %q / %q", c.Hdr.Data, c.Payload)
	}
	if n := testing.AllocsPerRun(100, func() { c = m.Clone() }); n > 1 {
		t.Fatalf("Clone allocated %.0f times, want 1", n)
	}
}
