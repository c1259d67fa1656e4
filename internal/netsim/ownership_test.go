package netsim

import (
	"bytes"
	"encoding/binary"
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

// flow is one (src, dst) stream of the ownership test: tx sends, dst
// receives.
type flow struct {
	tx  Transport
	dst wire.Addr
}

// receiver is the receive side under test.
type receiver interface {
	ShardedReceiver
	Close() error
}

// TestReceivedPayloadIsTheReceivers holds every transport to the Receive
// contract — "each received Datagram's Payload is owned by the receiver;
// the transport never reuses or mutates it after delivery" — which is what
// lets the host stack hand Message.Payload to an application, and the SN
// carry a miss's payload through the slow path, without copying it. Every
// payload received is kept, hundreds more datagrams follow it through
// single sends and batches of equal and mixed sizes, and at the end every
// kept payload must still read what its datagram carried.
//
// The receive side is split into shards first (ShardedReceiver), as a pipe
// engine splits it: each flow's datagrams must arrive on its shard
// (wire.RxShard) in the order they were sent, and Close must close every
// shard.
func TestReceivedPayloadIsTheReceivers(t *testing.T) {
	const shards = 2
	senders := []string{"fd00::a1", "fd00::a2", "fd00::a3", "fd00::a4"}
	udpNodes := func(opts ...UDPOption) func(*testing.T) ([]flow, receiver) {
		return func(t *testing.T) ([]flow, receiver) {
			dir := NewUDPDirectory()
			open := func(addr string) *UDPTransport {
				tr, err := NewUDPTransport(wire.MustAddr(addr), "127.0.0.1:0", dir, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				return tr
			}
			b := open("fd00::b")
			var flows []flow
			for _, a := range senders {
				flows = append(flows, flow{open(a), b.LocalAddr()})
			}
			return flows, b
		}
	}
	for _, tc := range []struct {
		name string
		skip func() bool
		make func(*testing.T) ([]flow, receiver)
	}{
		{name: "sim", make: func(t *testing.T) ([]flow, receiver) {
			n := NewNetwork()
			b := attach(t, n, "fd00::b")
			var flows []flow
			for _, a := range senders {
				flows = append(flows, flow{attach(t, n, a), b.LocalAddr()})
			}
			return flows, b.(receiver)
		}},
		{name: "mux", make: func(t *testing.T) ([]flow, receiver) {
			n := NewNetwork()
			a := attach(t, n, "fd00::a")
			m := n.NewMux(0)
			t.Cleanup(func() { m.Close() })
			var flows []flow
			for _, d := range []string{"fd00::b1", "fd00::b2", "fd00::b3", "fd00::b4"} {
				dst := wire.MustAddr(d)
				if err := m.AddPort(dst); err != nil {
					t.Fatal(err)
				}
				flows = append(flows, flow{a, dst})
			}
			return flows, m
		}},
		{name: "udp-portable", make: udpNodes(WithoutMMsg())},
		{name: "udp-mmsg", skip: func() bool { return !mmsgArch }, make: udpNodes(WithoutUDPGSO())},
		{name: "udp-gso", skip: func() bool { return !UDPGSOSupported() }, make: udpNodes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip != nil && tc.skip() {
				t.Skip("transport tier unavailable here")
			}
			flows, rx := tc.make(t)
			qs := rx.ReceiveShards(shards)
			if len(qs) != shards {
				t.Fatalf("ReceiveShards(%d) gave %d queues", shards, len(qs))
			}
			covered := make(map[int]bool)
			for _, f := range flows {
				covered[wire.RxShard(f.tx.LocalAddr(), f.dst, shards)] = true
			}
			if len(covered) != shards {
				t.Fatalf("the flows cover %d of %d shards; the test needs them all", len(covered), shards)
			}
			const rounds, perRound = 24, 32
			kept := make(map[int][]byte, rounds*perRound)
			want := make(map[int][]byte, rounds*perRound)
			for r := 0; r < rounds; r++ {
				f := flows[r%len(flows)]
				q := qs[wire.RxShard(f.tx.LocalAddr(), f.dst, shards)]
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
					dgs[i] = wire.Datagram{Dst: f.dst, Payload: bytes.Clone(want[seq])}
				}
				if r%2 == 0 {
					if n, err := SendBatch(f.tx, dgs); err != nil || n != perRound {
						t.Fatalf("round %d: SendBatch = %d, %v", r, n, err)
					}
				} else {
					for i := range dgs {
						if err := f.tx.Send(dgs[i]); err != nil {
							t.Fatalf("round %d: Send: %v", r, err)
						}
					}
				}
				for i := range dgs {
					clear(dgs[i].Payload)
				}
				for got := 0; got < perRound; got++ {
					select {
					case dg := <-q:
						seq := int(binary.BigEndian.Uint32(dg.Payload))
						if !bytes.Equal(dg.Payload, want[seq]) {
							t.Fatalf("datagram %d arrived damaged", seq)
						}
						if dg.Src != f.tx.LocalAddr() || dg.Dst != f.dst || seq != r*perRound+got {
							t.Fatalf("round %d: datagram %d (%s→%s) arrived %d-th on its flow's shard", r, seq, dg.Src, dg.Dst, got)
						}
						kept[seq] = dg.Payload
					case <-time.After(3 * time.Second):
						t.Fatalf("round %d: %d of %d datagrams arrived on the flow's shard", r, got, perRound)
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
			rx.Close()
			for i, q := range qs {
				select {
				case _, ok := <-q:
					if ok {
						t.Fatalf("shard %d held a datagram no flow sent", i)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("shard %d is still open after Close", i)
				}
			}
		})
	}
}

// TestReceiveShardsKeepsDepthAndQueue: splitting a receive side divides its
// depth among the shards instead of multiplying it, and what was queued
// before the split moves to its shard in order.
func TestReceiveShardsKeepsDepthAndQueue(t *testing.T) {
	n := NewNetwork()
	m := n.NewMux(64)
	defer m.Close()
	a := attach(t, n, "fd00::a")
	dsts := []wire.Addr{wire.MustAddr("fd00::b1"), wire.MustAddr("fd00::b2"), wire.MustAddr("fd00::b3")}
	for _, d := range dsts {
		if err := m.AddPort(d); err != nil {
			t.Fatal(err)
		}
	}
	const each = 5
	for i := 0; i < each; i++ {
		for _, d := range dsts {
			if err := a.Send(wire.Datagram{Dst: d, Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	qs := m.ReceiveShards(4)
	if m.Capacity() != 64 || m.Backlog() != each*len(dsts) {
		t.Fatalf("after the split: capacity %d backlog %d, want 64 and %d", m.Capacity(), m.Backlog(), each*len(dsts))
	}
	next := make(map[wire.Addr]byte)
	for i, q := range qs {
		for len(q) > 0 {
			dg := <-q
			if s := wire.RxShard(dg.Src, dg.Dst, len(qs)); s != i {
				t.Fatalf("a datagram for %s sits on shard %d, want %d", dg.Dst, i, s)
			}
			if dg.Payload[0] != next[dg.Dst] {
				t.Fatalf("datagram %d for %s came out as number %d", dg.Payload[0], dg.Dst, next[dg.Dst])
			}
			next[dg.Dst]++
		}
	}
	for _, d := range dsts {
		if next[d] != each {
			t.Fatalf("%d of %d datagrams for %s survived the split", next[d], each, d)
		}
	}
}
