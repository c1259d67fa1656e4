package netsim

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
	"time"

	"interedge/internal/wire"
)

// ownershipPayload is the payload datagram seq carries: its number, then a
// pattern no other datagram shares.
func ownershipPayload(seq, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint32(p, uint32(seq))
	for j := 4; j < size; j++ {
		p[j] = byte(seq*31 + j*7)
	}
	return p
}

// TestReceivedPayloadIsTheReceivers holds every transport to the Receive
// contract — "each received Datagram's Payload is owned by the receiver;
// the transport never reuses or mutates it after delivery" — which is what
// lets the host stack hand Message.Payload to an application, and the SN
// carry a miss's payload through the slow path, without copying it. Every
// payload received is kept, hundreds more datagrams follow it through
// single sends and batches of equal and mixed sizes, and at the end every
// kept payload must still read what its datagram carried.
func TestReceivedPayloadIsTheReceivers(t *testing.T) {
	udpPair := func(opts ...UDPOption) func(*testing.T) (Transport, <-chan wire.Datagram, wire.Addr) {
		return func(t *testing.T) (Transport, <-chan wire.Datagram, wire.Addr) {
			dir := NewUDPDirectory()
			a, err := NewUDPTransport(wire.MustAddr("fd00::a"), "127.0.0.1:0", dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
			b, err := NewUDPTransport(wire.MustAddr("fd00::b"), "127.0.0.1:0", dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return a, b.Receive(), b.LocalAddr()
		}
	}
	for _, tc := range []struct {
		name string
		skip func() bool
		make func(*testing.T) (tx Transport, rx <-chan wire.Datagram, dst wire.Addr)
	}{
		{name: "sim", make: func(t *testing.T) (Transport, <-chan wire.Datagram, wire.Addr) {
			n := NewNetwork()
			a, b := attach(t, n, "fd00::a"), attach(t, n, "fd00::b")
			return a, b.Receive(), b.LocalAddr()
		}},
		{name: "mux", make: func(t *testing.T) (Transport, <-chan wire.Datagram, wire.Addr) {
			n := NewNetwork()
			a := attach(t, n, "fd00::a")
			m := n.NewMux(0)
			t.Cleanup(func() { m.Close() })
			dst := wire.MustAddr("fd00::b")
			if err := m.AddPort(dst); err != nil {
				t.Fatal(err)
			}
			return a, m.Receive(), dst
		}},
		{name: "udp-portable", make: udpPair(WithoutMMsg())},
		{name: "udp-mmsg", skip: func() bool { return !mmsgArch }, make: udpPair(WithoutUDPGSO())},
		{name: "udp-gso", skip: func() bool { return !UDPGSOSupported() || os.Getenv("INTEREDGE_NO_GSO") != "" }, make: udpPair()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip != nil && tc.skip() {
				t.Skip("transport tier unavailable here")
			}
			tx, rx, dst := tc.make(t)
			const rounds, perRound = 24, 32
			kept := make(map[int][]byte, rounds*perRound)
			want := make(map[int][]byte, rounds*perRound)
			for r := 0; r < rounds; r++ {
				dgs := make([]wire.Datagram, perRound)
				for i := range dgs {
					seq := r*perRound + i
					size := 4 + (r*97)%1200 // one size a round: a GSO run
					if r%3 == 2 {
						size = 4 + (seq*37)%1200 // mixed sizes
					}
					want[seq] = ownershipPayload(seq, size)
					// The transport may not keep the sender's buffer either,
					// so it gets a scratch copy that is wiped after the send.
					dgs[i] = wire.Datagram{Dst: dst, Payload: bytes.Clone(want[seq])}
				}
				if r%2 == 0 {
					if n, err := SendBatch(tx, dgs); err != nil || n != perRound {
						t.Fatalf("round %d: SendBatch = %d, %v", r, n, err)
					}
				} else {
					for i := range dgs {
						if err := tx.Send(dgs[i]); err != nil {
							t.Fatalf("round %d: Send: %v", r, err)
						}
					}
				}
				for i := range dgs {
					clear(dgs[i].Payload)
				}
				for got := 0; got < perRound; got++ {
					select {
					case dg := <-rx:
						seq := int(binary.BigEndian.Uint32(dg.Payload))
						if !bytes.Equal(dg.Payload, want[seq]) {
							t.Fatalf("datagram %d arrived damaged", seq)
						}
						kept[seq] = dg.Payload
					case <-time.After(3 * time.Second):
						t.Fatalf("round %d: %d of %d datagrams arrived", r, got, perRound)
					}
				}
			}
			if len(kept) != rounds*perRound {
				t.Fatalf("%d distinct datagrams received, want %d", len(kept), rounds*perRound)
			}
			for seq, p := range kept {
				if !bytes.Equal(p, want[seq]) {
					t.Fatalf("payload of datagram %d was written after delivery", seq)
				}
			}
		})
	}
}
