package chaos

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/netsim"
	"interedge/internal/services/echo"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// TestSoakMultiEdomainChaos drives a full two-edomain topology (2 SNs
// each, meshed, one host per edomain) through every fault class at once:
// steady-state reorder/duplicate/corrupt/jitter on ALL links, plus a
// scripted schedule that flaps the inter-edomain gateway partition past
// the dead-peer threshold, fires a loss burst on a host's access link, and
// progressively degrades an intra-edomain link. Invariants:
//
//   - no corrupted payload ever reaches a host connection (CRC-checked);
//   - no echo reply is delivered twice for one request;
//   - gateway pipes killed by the flap re-establish and the topology
//     re-converges (fresh round trips succeed on every host);
//   - teardown leaks no goroutines and heap growth stays bounded.
func TestSoakMultiEdomainChaos(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		name := fmt.Sprintf("seed=%d", seed)
		baseGoroutines := runtime.NumGoroutine()
		baseHeap := heapAlloc()
		t.Run(name, func(t *testing.T) { runSoak(t, seed) })
		// Teardown must not leak. The soak has returned, so its topology is
		// closed and nothing of it is reachable any more: bound goroutines
		// and heap against the pre-topology baseline.
		waitCond(t, 5*time.Second, name+": goroutines drained after Close", func() bool {
			runtime.GC() // finalize timer goroutines promptly
			return runtime.NumGoroutine() <= baseGoroutines+10
		})
		const heapSlack = 64 << 20
		end := heapAlloc()
		t.Logf("%s: heap %d -> %d bytes", name, baseHeap, end)
		if end > baseHeap+heapSlack {
			t.Errorf("%s: heap grew from %d to %d bytes across the soak", name, baseHeap, end)
		}
	}
}

// heapAlloc returns the live heap after a collection.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func runSoak(t *testing.T, seed int64) {
	net := netsim.NewNetwork(netsim.WithSeed(seed))
	topo := lab.New(lab.WithNetwork(net), lab.WithSNConfig(func(c *sn.Config) {
		c.KeepaliveInterval = 25 * time.Millisecond
		c.HandshakeTimeout = 15 * time.Millisecond
		c.HandshakeRetries = 10
	}))
	defer topo.Close()

	withEcho := func(node *sn.SN, ed *lab.Edomain) error { return node.Register(echo.New()) }
	edA, err := topo.AddEdomain("ed-a", 2, withEcho)
	if err != nil {
		t.Fatal(err)
	}
	edB, err := topo.AddEdomain("ed-b", 2, withEcho)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	hA, err := topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := topo.NewHost(edB, 1)
	if err != nil {
		t.Fatal(err)
	}
	// On failure, dump every node's telemetry registry: the full cross-layer
	// counter and histogram state is usually enough to localize which layer
	// ate the packets without re-running under a debugger. The dump holds
	// the registries, not the nodes.
	var names []string
	var regs []*telemetry.Registry
	for _, ed := range []*lab.Edomain{edA, edB} {
		for i, node := range ed.SNs {
			names = append(names, fmt.Sprintf("%s/sn%d", ed.ID, i))
			regs = append(regs, node.Telemetry())
		}
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for i, reg := range regs {
			t.Logf("telemetry %s:\n%s", names[i], reg.Snapshot())
		}
	})

	// Steady-state chaos on every link, switched on only after setup so the
	// build phase is fast; the handshake-under-faults path is exercised by
	// the scripted events below and by the pipe-level tests.
	net.SetDefaultFaults(netsim.FaultProfile{
		ReorderRate:     0.1,
		ReorderDelayMin: 500 * time.Microsecond,
		ReorderDelayMax: 2 * time.Millisecond,
		DuplicateRate:   0.1,
		CorruptRate:     0.05,
		JitterMax:       time.Millisecond,
	})

	// Scripted faults: gateway flap (each 200ms sever outlasts the 100ms
	// DeadAfter), a heavy loss burst on host A's access link, and a
	// four-step degradation of edomain B's intra-SN link, later restored.
	gwA, gwB := edA.Gateway().Addr(), edB.Gateway().Addr()
	events := netsim.FlapPartition(gwA, gwB, 100*time.Millisecond, 200*time.Millisecond, 2)
	events = append(events, netsim.LossBurst(
		hA.Addr(), edA.SNs[0].Addr(), netsim.LinkProfile{}, 0.7,
		150*time.Millisecond, 200*time.Millisecond)...)
	events = append(events, netsim.Degrade(
		edB.SNs[0].Addr(), edB.SNs[1].Addr(),
		netsim.LinkProfile{}, netsim.LinkProfile{Latency: 2 * time.Millisecond, LossRate: 0.05},
		200*time.Millisecond, 100*time.Millisecond, 4)...)
	events = append(events, netsim.FaultEvent{
		At: 700 * time.Millisecond,
		Do: func(n *netsim.Network) {
			n.SetLinkBoth(edB.SNs[0].Addr(), edB.SNs[1].Addr(), netsim.LinkProfile{})
		},
	})
	done, cancel := net.Schedule(events)
	defer cancel()

	// Traffic: each host echoes CRC-stamped payloads through its first-hop
	// SN for the whole fault window. Losses are expected; corruption and
	// double delivery are not.
	type result struct {
		delivered map[uint32]int
		bad       int
		sent      int
	}
	drive := func(h *host.Host, tag uint32) result {
		res := result{delivered: make(map[uint32]int)}
		conn, err := h.NewConn(wire.SvcEcho)
		if err != nil {
			t.Errorf("NewConn: %v", err)
			return res
		}
		defer conn.Close()
		var wg sync.WaitGroup
		stopRx := make(chan struct{})
		var mu sync.Mutex
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case msg, ok := <-conn.Receive():
					if !ok {
						return
					}
					seq, ok := checkPayload(msg.Payload)
					mu.Lock()
					if !ok || seq>>24 != tag {
						res.bad++
					} else {
						res.delivered[seq]++
					}
					mu.Unlock()
				case <-stopRx:
					return
				}
			}
		}()
		deadline := time.Now().Add(1200 * time.Millisecond)
		for i := 0; time.Now().Before(deadline); i++ {
			seq := tag<<24 | uint32(i)
			if err := conn.Send(nil, mkPayload(seq)); err == nil {
				res.sent++
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Let in-flight replies land before counting.
		time.Sleep(150 * time.Millisecond)
		close(stopRx)
		wg.Wait()
		return res
	}
	var resA, resB result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); resA = drive(hA, 0xA) }()
	go func() { defer wg.Done(); resB = drive(hB, 0xB) }()
	wg.Wait()
	<-done

	for name, res := range map[string]result{"hostA": resA, "hostB": resB} {
		if res.bad != 0 {
			t.Errorf("%s: %d corrupted or misdirected payloads reached the connection", name, res.bad)
		}
		for seq, n := range res.delivered {
			if n != 1 {
				t.Errorf("%s: seq %#x delivered %d times", name, seq, n)
			}
		}
		if len(res.delivered) == 0 {
			t.Errorf("%s: no echo round trip completed under chaos (sent %d)", name, res.sent)
		}
	}

	// The gateway flap must have bitten (each sever outlasts DeadAfter) and
	// the mesh must re-converge once the schedule ends.
	var peersLost float64
	for _, ed := range []*lab.Edomain{edA, edB} {
		for _, node := range ed.SNs {
			peersLost += node.Telemetry().Snapshot().Value("sn_peers_lost_total")
		}
	}
	if peersLost == 0 {
		t.Error("no SN ever lost a peer; the gateway flap did not bite")
	}
	waitCond(t, 5*time.Second, "gateway mesh re-established", func() bool {
		return edA.Gateway().Pipes().HasPeer(gwB) && edB.Gateway().Pipes().HasPeer(gwA)
	})
	for name, h := range map[string]*host.Host{"hostA": hA, "hostB": hB} {
		conn, err := h.NewConn(wire.SvcEcho)
		if err != nil {
			t.Fatalf("%s post-chaos NewConn: %v", name, err)
		}
		seq := uint32(0xC<<24 | 1)
		okCh := make(chan struct{}, 1)
		go func() {
			for msg := range conn.Receive() {
				if got, ok := checkPayload(msg.Payload); ok && got == seq {
					okCh <- struct{}{}
					return
				}
			}
		}()
		waitCond(t, 5*time.Second, name+" post-chaos round trip", func() bool {
			_ = conn.Send(nil, mkPayload(seq))
			select {
			case <-okCh:
				return true
			case <-time.After(20 * time.Millisecond):
				return false
			}
		})
		conn.Close()
	}
}
