package lab

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// routeLab is ipfwd on one SN per edomain, each with a 64-rule decision
// cache, and a sender in the first edomain. The receiver sits in the same
// edomain, on the same SN, or across the peering fabric in a second one;
// opts are the module's registration options.
func routeLab(t *testing.T, cross bool, opts ...sn.ModuleOption) (src, dst *host.Host, nodes []*sn.SN) {
	t.Helper()
	topo := New(WithSNConfig(func(c *sn.Config) { c.CacheSize = 64 }))
	t.Cleanup(topo.Close)
	setup := func(node *sn.SN, ed *Edomain) error {
		return node.Register(ipfwd.New(topo.NewNodeResolver(ed, node), topo.Fabric), opts...)
	}
	edA, err := topo.AddEdomain("ed-a", 1, setup)
	if err != nil {
		t.Fatal(err)
	}
	nodes = edA.SNs
	edDst := edA
	if cross {
		if edDst, err = topo.AddEdomain("ed-b", 1, setup); err != nil {
			t.Fatal(err)
		}
		if err := topo.Mesh(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, edDst.SNs...)
	}
	if src, err = topo.NewHost(edA, 0); err != nil {
		t.Fatal(err)
	}
	if dst, err = topo.NewHost(edDst, 0); err != nil {
		t.Fatal(err)
	}
	return src, dst, nodes
}

// TestSlowPathRouteAllocs: the allocation budget of a decision-cache miss
// that ipfwd answers with a Route verdict. The sender cycles over 1 024
// connection ids against 64-rule caches, so every packet misses at every SN
// on its path and installs a rule that evicts another. The budget is 0, for
// a miss inside one SN and for one that crosses two edomains. Each SN gives
// its receive copy and its *sn.Packet back once ipfwd's verdict is applied,
// the receiving host gives its buffer back when its service handler returns,
// and the verdict itself, its rule's next hop and the first packet's header
// cost nothing of their own: at the ingress of a cross-edomain flow, ipfwd
// writes the transit header into the packet (sn.Packet.RewriteBuf), and the
// cache copies it into bytes the evicted rule's slot already owns.
func TestSlowPathRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes sync.Pool retention and alloc counts")
	}
	for _, tc := range []struct {
		name   string
		cross  bool
		budget float64
	}{
		{"same edomain", false, 0},
		{"cross edomain", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst, nodes := routeLab(t, tc.cross)
			const conns = 1024
			hdrs := make([][]byte, conns)
			for i := range hdrs {
				hdr := wire.ILPHeader{Service: wire.SvcIPFwd, Conn: wire.ConnectionID(i + 1), Data: ipfwd.DestData(dst.Addr())}
				var err error
				if hdrs[i], err = hdr.Encode(); err != nil {
					t.Fatal(err)
				}
			}
			got := make(chan struct{}, 1)
			dst.OnService(wire.SvcIPFwd, func(host.Message) { got <- struct{}{} })
			payload := make([]byte, 64)
			lost := time.After(30 * time.Second)
			n := 0
			deliver := func() {
				if err := src.SendHeaderBytes(nodes[0].Addr(), hdrs[n%conns], payload); err != nil {
					t.Fatal(err)
				}
				n++
				select {
				case <-got:
				case <-lost:
					t.Fatal("packet never delivered")
				}
			}
			for i := 0; i < 2*conns; i++ { // every rule evicted once, pools and resolution caches warm
				deliver()
			}
			var hits, misses [2]float64
			for i, node := range nodes {
				c := node.Telemetry().Snapshot()
				hits[i], misses[i] = c.Value("sn_fastpath_hits_total"), c.Value("sn_slowpath_sent_total")
			}
			allocs := testing.AllocsPerRun(500, deliver)
			t.Logf("%s miss: %.2f allocations", tc.name, allocs)
			if allocs > tc.budget {
				t.Errorf("a %s miss allocated %.2f times, want <= %.0f", tc.name, allocs, tc.budget)
			}
			for i, node := range nodes {
				c := node.Telemetry().Snapshot()
				if h, m := c.Value("sn_fastpath_hits_total")-hits[i], c.Value("sn_slowpath_sent_total")-misses[i]; h != 0 || m != 501 {
					t.Errorf("SN %v: %v hits and %v misses of 501 packets; every packet must miss", i, h, m)
				}
			}
		})
	}
}

// TestCrossEdomainRouteInEnclave: a Route verdict carries its transit header
// across the enclave boundary, on the first packet's forward as well as on
// the rule, so a flow across two edomains reaches the far edomain wrapped —
// and is delivered — whether its packets meet the module or the decision
// cache.
func TestCrossEdomainRouteInEnclave(t *testing.T) {
	src, dst, nodes := routeLab(t, true, sn.WithEnclave())
	in := inbox(dst)
	conn, err := src.NewConn(wire.SvcIPFwd, host.Via(nodes[0].Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, msg := range []string{"first, through the module", "second, from the cache"} {
		if err := conn.Send(ipfwd.DestData(dst.Addr()), []byte(msg)); err != nil {
			t.Fatal(err)
		}
		expect(t, in, msg)
	}
	if hits := nodes[0].Telemetry().Snapshot().Value("sn_fastpath_hits_total"); hits != 1 {
		t.Fatalf("ingress SN: %v cache hits, want 1 (the second packet)", hits)
	}
	if n := nodes[1].Telemetry().Snapshot().Value("sn_transit_unwrapped_total"); n != 2 {
		t.Fatalf("egress SN unwrapped %v of 2 packets; the others crossed without their transit header", n)
	}
}
