package chaos

import (
	"sync"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// newUDPManager attaches a pipe manager to a real loopback UDP transport.
func newUDPManager(t *testing.T, dir *netsim.UDPDirectory, addr string, opts []netsim.UDPOption, edit func(*pipe.Config)) *pipe.Manager {
	t.Helper()
	tr, err := netsim.NewUDPTransport(wire.MustAddr(addr), "127.0.0.1:0", dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipe.Config{
		Transport:        tr,
		Identity:         id,
		HandshakeTimeout: 20 * time.Millisecond,
		HandshakeRetries: 20,
	}
	if edit != nil {
		edit(&cfg)
	}
	m, err := pipe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestForwardingChainOverUDPGSO pushes bursts through a forwarding chain
// A -> B -> C on real loopback UDP sockets, with B's egress coalescer
// staging and batch-sealing the forwards, so on capable kernels the B -> C
// leg leaves as UDP_SEGMENT super-datagrams and arrives through UDP_GRO
// coalesced receives. The gso and fallback legs must deliver the identical
// set of packets exactly once with payload integrity intact — segmentation
// offload may change how bytes are carried, never what arrives.
func TestForwardingChainOverUDPGSO(t *testing.T) {
	const total = 400
	run := func(t *testing.T, opts []netsim.UDPOption) map[uint32]int {
		// Deep receive queues: a burst must reach the handler, not be shed
		// at the transport like a NIC under overrun — this test asserts
		// delivery semantics, not drop behavior.
		opts = append([]netsim.UDPOption{netsim.WithUDPQueueDepth(2 * total)}, opts...)
		dir := netsim.NewUDPDirectory()
		var mu sync.Mutex
		got := make(map[uint32]int)
		bad := 0
		c := newUDPManager(t, dir, "fd00::c", opts, func(cfg *pipe.Config) {
			cfg.BatchHandler = func(_ pipe.Sender, _ wire.Addr, pkts []pipe.RxPacket) {
				mu.Lock()
				for i := range pkts {
					if seq, ok := checkPayload(pkts[i].Payload); ok {
						got[seq]++
					} else {
						bad++
					}
				}
				mu.Unlock()
			}
		})
		b := newUDPManager(t, dir, "fd00::b", opts, func(cfg *pipe.Config) {
			cfg.Handler = func(tx pipe.Sender, _ wire.Addr, _ wire.ILPHeader, hdrRaw, payload []byte) {
				_ = tx.SendHeaderBytes(wire.MustAddr("fd00::c"), hdrRaw, payload)
			}
		})
		a := newUDPManager(t, dir, "fd00::a", opts, nil)
		if err := b.Connect(c.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if err := a.Connect(b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 9}
		for seq := uint32(0); seq < total; seq++ {
			if err := a.Send(b.LocalAddr(), &hdr, mkPayload(seq)); err != nil {
				t.Fatal(err)
			}
			// Bursts of 32 with a breather: enough back-to-back arrivals for
			// B to batch (and GSO-coalesce) them, without overrunning the
			// loopback socket buffers.
			if seq%32 == 31 {
				time.Sleep(2 * time.Millisecond)
			}
		}
		waitQuiesce(t, 10*time.Second, 300*time.Millisecond, func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(got)
		})
		mu.Lock()
		defer mu.Unlock()
		if bad != 0 {
			t.Fatalf("%d corrupted payloads reached the handler", bad)
		}
		out := make(map[uint32]int, len(got))
		for k, v := range got {
			out[k] = v
		}
		return out
	}
	check := func(t *testing.T, got map[uint32]int) {
		if len(got) != total {
			t.Fatalf("delivered %d distinct packets, want %d", len(got), total)
		}
		for seq, n := range got {
			if n != 1 {
				t.Fatalf("seq %d delivered %d times", seq, n)
			}
		}
	}
	t.Run("gso", func(t *testing.T) {
		if !netsim.UDPGSOSupported() {
			t.Skip("UDP_SEGMENT unavailable")
		}
		check(t, run(t, nil))
	})
	t.Run("fallback", func(t *testing.T) {
		check(t, run(t, []netsim.UDPOption{netsim.WithoutUDPGSO()}))
	})
}
