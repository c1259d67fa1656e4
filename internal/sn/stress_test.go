package sn

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// statefulModule emulates a service that (per App B.2) keeps internal
// decisions and can recompute them after arbitrary cache eviction. It
// forwards every flow back to its source and installs a rule.
type statefulModule struct {
	recomputes atomic.Uint64
}

func (m *statefulModule) Service() wire.ServiceID { return wire.SvcEcho }
func (m *statefulModule) Name() string            { return "stateful" }
func (m *statefulModule) Version() string         { return "1" }
func (m *statefulModule) HandlePacket(env Env, pkt *Packet) (Decision, error) {
	m.recomputes.Add(1)
	return Decision{
		Forwards: []Forward{{Dst: pkt.Src}},
		Rules: []Rule{{
			Key:    pkt.Key(),
			Action: cache.Action{Forward: []wire.Addr{pkt.Src}},
		}},
	}, nil
}

// Appendix B.1's correctness requirement under eviction pressure: a cache
// far smaller than the flow count must never misroute — every packet still
// comes back to its own sender, with the module recomputing evicted
// decisions.
func TestEvictionStormCorrectness(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5", func(c *Config) {
		c.CacheSize = 8 // tiny: constant eviction with 64 flows
	})
	mod := &statefulModule{}
	if err := node.Register(mod, WithQueueDepth(4096)); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}

	const flows = 64
	const rounds = 20
	for r := 0; r < rounds; r++ {
		for f := 0; f < flows; f++ {
			hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: wire.ConnectionID(f)}
			if err := cl.mgr.Send(node.Addr(), &hdr, []byte{byte(f)}); err != nil {
				t.Fatal(err)
			}
		}
		// Drain this round before the next, keeping queues bounded.
		for i := 0; i < flows; i++ {
			got := cl.await(t)
			// The packet's flow tag must match its connection ID: no
			// cross-flow misrouting despite constant eviction.
			if wire.ConnectionID(got.payload[0]) != got.hdr.Conn {
				t.Fatalf("flow %d received packet tagged %d", got.hdr.Conn, got.payload[0])
			}
		}
	}
	st := node.Telemetry().Snapshot()
	if st.Value("cache_evictions_total") == 0 {
		t.Fatal("test did not exercise eviction")
	}
	if mod.recomputes.Load() <= flows {
		t.Fatalf("module recomputed only %d times; eviction should force recomputation", mod.recomputes.Load())
	}
	if size := st.Value("cache_entries"); size > 8 {
		t.Fatalf("cache size %v over capacity", size)
	}
}

// A lossy substrate drops packets but never corrupts delivery: everything
// that arrives is intact and correctly demultiplexed.
func TestLossyPipeIntegrity(t *testing.T) {
	net := netsim.NewNetwork(netsim.WithSeed(11))
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(&echoModule{}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// 30% loss both ways AFTER the handshake.
	net.SetLinkBoth(cl.addr, node.Addr(), netsim.LinkProfile{LossRate: 0.3})

	const sent = 300
	for i := 0; i < sent; i++ {
		hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1, Data: []byte(fmt.Sprintf("m-%d", i))}
		if err := cl.mgr.Send(node.Addr(), &hdr, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	timeout := time.After(5 * time.Second)
drain:
	for {
		select {
		case got := <-cl.rx:
			// Echo reverses payload; reverse back and check prefix.
			rev := make([]byte, len(got.payload))
			for i, b := range got.payload {
				rev[len(rev)-1-i] = b
			}
			if string(rev[:8]) != "payload-" {
				t.Fatalf("corrupted payload %q", rev)
			}
			received++
		case <-timeout:
			break drain
		default:
			if received > 0 {
				select {
				case got := <-cl.rx:
					_ = got
					received++
					continue
				case <-time.After(300 * time.Millisecond):
					break drain
				}
			}
			time.Sleep(time.Millisecond)
		}
	}
	// With ~30% loss each way, roughly half survive; the exact count is
	// seeded. It must be substantial but below the send count.
	if received == 0 || received >= sent {
		t.Fatalf("received %d of %d under loss", received, sent)
	}
	t.Logf("received %d/%d under 30%% bidirectional loss", received, sent)
}

// TestShardedTerminusPerSourceOrdering runs the no-service fast path (the
// Table 1 "no-service" row) through an SN with a wide receive pipeline:
// several ingress hosts stream numbered packets that pre-installed cache
// rules forward to one egress host. Sharding by source must deliver every
// ingress stream in order even though streams are processed on different
// terminus workers.
func TestShardedTerminusPerSourceOrdering(t *testing.T) {
	const senders = 4
	const perSender = 250
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5", func(c *Config) {
		c.RxWorkers = 4
	})
	egress := newClient(t, net, "fd00::e")
	if err := egress.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}

	ingress := make([]*client, senders)
	for i := range ingress {
		ingress[i] = newClient(t, net, fmt.Sprintf("fd00::%x", i+1))
		if err := ingress[i].mgr.Connect(node.Addr()); err != nil {
			t.Fatal(err)
		}
		// Pre-install the fast-path rule, as the bench harness does: every
		// packet from this ingress rides the cache-hit path.
		node.Cache().Add(
			wire.FlowKey{Src: ingress[i].addr, Service: wire.SvcNone, Conn: wire.ConnectionID(i)},
			cache.Action{Forward: []wire.Addr{egress.addr}},
		)
	}

	var wg sync.WaitGroup
	for i, cl := range ingress {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			payload := make([]byte, 8)
			hdr := wire.ILPHeader{Service: wire.SvcNone, Conn: wire.ConnectionID(i)}
			for seq := 0; seq < perSender; seq++ {
				binary.BigEndian.PutUint64(payload, uint64(seq))
				if err := cl.mgr.Send(node.Addr(), &hdr, payload); err != nil {
					t.Errorf("ingress %d send: %v", i, err)
					return
				}
			}
		}(i, cl)
	}

	lastSeq := make(map[wire.ConnectionID]uint64)
	for got := 0; got < senders*perSender; got++ {
		select {
		case pkt := <-egress.rx:
			seq := binary.BigEndian.Uint64(pkt.payload)
			if last, seen := lastSeq[pkt.hdr.Conn]; seen && seq != last+1 {
				t.Fatalf("ingress %d: seq %d after %d (reordered through terminus)", pkt.hdr.Conn, seq, last)
			}
			lastSeq[pkt.hdr.Conn] = seq
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d/%d packets", got, senders*perSender)
		}
	}
	wg.Wait()
	if hits := node.Telemetry().Snapshot().Value("cache_hits_total"); hits < senders*perSender {
		t.Errorf("cache hits = %v, want >= %d (all packets on the fast path)", hits, senders*perSender)
	}
}

// Many concurrent flows through the IPC transport: the serialization
// mutex and framed protocol must stay consistent under parallelism.
func TestIPCTransportConcurrentFlows(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(&echoModule{}, WithTransport(TransportIPC), WithWorkers(4), WithQueueDepth(1024)); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: wire.ConnectionID(i % 7)}
		if err := cl.mgr.Send(node.Addr(), &hdr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		cl.await(t)
	}
}
