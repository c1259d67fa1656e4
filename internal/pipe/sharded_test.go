package pipe

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/wire"
)

// TestShardedPerSourceOrdering drives one receiver with a wide receive
// pipeline from several concurrent senders, each numbering its packets.
// Sharding by source must keep every sender's stream in order even though
// different senders' packets are processed on different workers.
func TestShardedPerSourceOrdering(t *testing.T) {
	const senders = 4
	const perSender = 300
	net := netsim.NewNetwork()
	b := newNode(t, net, "fd00::b", func(c *Config) { c.RxWorkers = 4 })
	if b.mgr.RxWorkers() != 4 {
		t.Fatalf("RxWorkers() = %d, want 4", b.mgr.RxWorkers())
	}

	nodes := make([]*node, senders)
	for i := range nodes {
		nodes[i] = newNode(t, net, fmt.Sprintf("fd00::%x", i+1))
		if err := nodes[i].mgr.Connect(b.addr); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			payload := make([]byte, 8)
			for seq := 0; seq < perSender; seq++ {
				binary.BigEndian.PutUint64(payload, uint64(seq))
				if err := n.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, payload); err != nil {
					t.Errorf("send from %s: %v", n.addr, err)
					return
				}
			}
		}(n)
	}

	lastSeq := make(map[wire.Addr]uint64)
	for got := 0; got < senders*perSender; got++ {
		select {
		case r := <-b.rx:
			seq := binary.BigEndian.Uint64(r.payload)
			if last, seen := lastSeq[r.src]; seen && seq != last+1 {
				t.Fatalf("source %s: seq %d after %d (reordered)", r.src, seq, last)
			}
			lastSeq[r.src] = seq
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d/%d packets", got, senders*perSender)
		}
	}
	wg.Wait()
	for _, n := range nodes {
		if last := lastSeq[n.addr]; last != perSender-1 {
			t.Errorf("source %s ended at seq %d, want %d", n.addr, last, perSender-1)
		}
	}
}

// TestShardedConcurrentPeerChurn exercises the copy-on-write peer table:
// data-path reads (Send, Peers, HasPeer) race against peer adds and drops.
// Run under -race this validates the lock-free read side.
func TestShardedConcurrentPeerChurn(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::a", func(c *Config) { c.RxWorkers = 2 })
	b := newNode(t, net, "fd00::b", func(c *Config) { c.RxWorkers = 2 })
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	churn := newNode(t, net, "fd00::c")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reader + sender
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("x"))
			a.mgr.Peers()
			a.mgr.HasPeer(churn.addr)
		}
	}()
	go func() { // writer: churn a second pipe up and down
		defer wg.Done()
		defer close(stop) // releases the reader goroutine
		for i := 0; i < 20; i++ {
			if err := a.mgr.Connect(churn.addr); err != nil {
				t.Errorf("churn connect: %v", err)
				return
			}
			a.mgr.DropPeer(churn.addr)
		}
	}()
	wg.Wait()

	// Drain whatever arrived; the established pipe must still work.
	drain := time.After(100 * time.Millisecond)
	for {
		select {
		case <-b.rx:
		case <-drain:
			return
		}
	}
}

// TestSendHeaderBytesAllocs pins the send-path allocation budget: with the
// pooled seal buffer the only steady-state allocation is the netsim
// transport's per-delivery payload copy (transport-owned by contract).
func TestSendHeaderBytesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes sync.Pool retention and alloc counts")
	}
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::a")
	// The receiver's no-op handler keeps its side allocation-free after
	// warmup, so only sender-side and transport allocations are counted.
	b := newNode(t, net, "fd00::b", func(c *Config) {
		c.RxWorkers = 1
		c.Handler = func(Sender, wire.Addr, wire.ILPHeader, []byte, []byte) {}
	})
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcNull, Conn: 1}
	enc, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for i := 0; i < 32; i++ { // warm the pool and both crypto scratches
		if err := a.mgr.SendHeaderBytes(b.addr, enc, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.mgr.SendHeaderBytes(b.addr, enc, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("SendHeaderBytes allocated %.1f times per op, want <= 1 (transport copy)", allocs)
	}
}

// TestRxWorkerOwnsSourceCacheShard pins the affinity an SN's decision cache
// relies on: on a one-endpoint engine with n RX workers, every source's
// packets reach one worker, and that worker is the only one handling any
// source of the same cache.NewSourceAffine shard — the cache stripes by
// wire.ShardIndex(src, n), so the worker hash must agree with it. Each
// worker hands its handler its own egress, which names the worker here.
func TestRxWorkerOwnsSourceCacheShard(t *testing.T) {
	const workers = 4
	const senders = 24
	const perSender = 20
	net := netsim.NewNetwork()
	var mu sync.Mutex
	workerOf := make(map[wire.Addr]Sender) // source → the tx its packets came with
	got := 0
	done := make(chan struct{})
	b := newNode(t, net, "fd00::b", func(c *Config) {
		c.RxWorkers = workers
		c.Handler = func(tx Sender, src wire.Addr, _ wire.ILPHeader, _, _ []byte) {
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := workerOf[src]; ok && prev != tx {
				t.Errorf("source %s reached two workers", src)
			}
			workerOf[src] = tx
			if got++; got == senders*perSender {
				close(done)
			}
		}
	})
	for i := 0; i < senders; i++ {
		n := newNode(t, net, fmt.Sprintf("fd00::1:%x", i))
		if err := n.mgr.Connect(b.addr); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < perSender; k++ {
			if err := n.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not every packet arrived")
	}
	mu.Lock()
	defer mu.Unlock()
	workerOfShard := make(map[int]Sender)
	shardOfWorker := make(map[Sender]int)
	for src, tx := range workerOf {
		shard := wire.ShardIndex(src, workers)
		if w, ok := workerOfShard[shard]; ok && w != tx {
			t.Errorf("cache shard %d is handled by two workers", shard)
		}
		if s, ok := shardOfWorker[tx]; ok && s != shard {
			t.Errorf("one worker handles cache shards %d and %d", s, shard)
		}
		workerOfShard[shard], shardOfWorker[tx] = tx, shard
	}
	if len(workerOfShard) != workers {
		t.Fatalf("senders covered %d of %d cache shards; the test needs them all", len(workerOfShard), workers)
	}
}
