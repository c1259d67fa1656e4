package sn

import (
	"crypto/ed25519"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/wire"
)

// fwdModule installs a cache rule forwarding the flow to a fixed next hop,
// under a rewritten header if rewrite is set — written into the packet's
// RewriteBuf if inPacket is — and forwards the triggering packet there too:
// a Route verdict.
type fwdModule struct {
	dst      wire.Addr
	rewrite  []byte
	inPacket bool
}

func (fwdModule) Service() wire.ServiceID { return wire.SvcEcho }
func (fwdModule) Name() string            { return "fwd" }
func (fwdModule) Version() string         { return "1" }
func (m fwdModule) HandlePacket(env Env, pkt *Packet) (Decision, error) {
	rewrite := m.rewrite
	if m.inPacket {
		rewrite = pkt.RewriteBuf(len(m.rewrite))
		copy(rewrite, m.rewrite)
	}
	return pkt.Route(m.dst, rewrite, wire.Addr{}), nil
}

func TestPeerDownInvalidatesDecisionCache(t *testing.T) {
	net := netsim.NewNetwork()
	var downs atomic.Int32
	node := newTestSN(t, net, "fd00::5", func(c *Config) {
		c.KeepaliveInterval = 20 * time.Millisecond
		c.DisableAutoConnect = true // no redial: the peer stays gone
		c.OnPeerDown = func(wire.Addr, ed25519.PublicKey) { downs.Add(1) }
	})
	if err := node.Register(&echoModule{installRule: true}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 7}, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	cl.await(t)
	deadline := time.Now().Add(2 * time.Second)
	for node.Cache().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("module never installed a cache rule")
		}
		time.Sleep(time.Millisecond)
	}

	// Sever the client. The SN's keepalives go unanswered, dead-peer
	// detection fires, and every decision for flows through the client
	// must leave the cache.
	net.Partition(cl.addr, node.Addr())
	deadline = time.Now().Add(2 * time.Second)
	for node.Cache().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cache still holds %d entries after peer death", node.Cache().Len())
		}
		time.Sleep(time.Millisecond)
	}
	if got := node.Telemetry().Snapshot().Value("sn_peers_lost_total"); got != 1 {
		t.Fatalf("PeersLost = %v, want 1", got)
	}
	if downs.Load() != 1 {
		t.Fatalf("chained OnPeerDown fired %d times, want 1", downs.Load())
	}
}

// TestForwardRequeuesWhileEstablishing: a verdict's forward to a next hop
// with no pipe yet is requeued, a handshake performed, and the packet
// flushed — not dropped — under the header the verdict gave it, even when
// that header lay in the packet, which is recycled long before the flush.
func TestForwardRequeuesWhileEstablishing(t *testing.T) {
	in := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	rewritten := wire.ILPHeader{Service: wire.SvcEcho, Conn: 2, Data: []byte("rewritten")}
	rewrite, err := rewritten.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		rewrite  []byte
		inPacket bool
		want     wire.ILPHeader
	}{
		{"original header", nil, false, in},
		{"rewritten header", rewrite, false, rewritten},
		{"rewritten header in the packet", rewrite, true, rewritten},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.NewNetwork()
			next := newClient(t, net, "fd00::2") // next hop with no pipe yet
			node := newTestSN(t, net, "fd00::5")
			if err := node.Register(fwdModule{dst: next.addr, rewrite: tc.rewrite, inPacket: tc.inPacket}); err != nil {
				t.Fatal(err)
			}
			cl := newClient(t, net, "fd00::1")
			if err := cl.mgr.Connect(node.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := cl.mgr.Send(node.Addr(), &in, []byte("through")); err != nil {
				t.Fatal(err)
			}
			got := next.await(t)
			if string(got.payload) != "through" || got.hdr.Conn != tc.want.Conn || string(got.hdr.Data) != string(tc.want.Data) {
				t.Fatalf("received %+v %q, want %+v %q", got.hdr, got.payload, tc.want, "through")
			}
			ctr := node.Telemetry().Snapshot()
			if ctr.Value("sn_requeued_total") == 0 {
				t.Fatal("Requeued counter is zero")
			}
			if ctr.Value("sn_requeue_drops_total") != 0 {
				t.Fatalf("RequeueDrops = %v, want 0", ctr.Value("sn_requeue_drops_total"))
			}
			// The forward is counted once its send has returned, which can
			// be after next has the packet.
			waitFor(t, func() bool { return node.Telemetry().Snapshot().Value("sn_forwarded_total") != 0 })
		})
	}
}

func TestRequeueDepthBoundsMemory(t *testing.T) {
	net := netsim.NewNetwork()
	dead := wire.MustAddr("fd00::dead") // never attached: handshake must fail
	node := newTestSN(t, net, "fd00::5", func(c *Config) {
		c.RequeueDepth = 2
		c.HandshakeTimeout = 20 * time.Millisecond
		c.HandshakeRetries = 3
	})
	if err := node.Register(fwdModule{dst: dead}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for node.Telemetry().Snapshot().Value("sn_requeue_drops_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never overflowed:\n%s", node.Telemetry().Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if got := node.Telemetry().Snapshot().Value("sn_requeued_total"); got > 64 {
		t.Fatalf("Requeued = %v, exceeds sends", got)
	}
}
