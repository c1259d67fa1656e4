package cache

import (
	"fmt"
	"testing"

	"interedge/internal/wire"
)

func TestSourceAffineShardSelection(t *testing.T) {
	const workers = 3 // deliberately not a power of two
	local := wire.MustAddr("fd00::100")
	c := NewSourceAffine(8192, workers, local)
	if got := c.ShardCount(); got != workers {
		t.Fatalf("ShardCount() = %d, want exactly %d (affinity requires shards == workers)", got, workers)
	}
	// Every key with the same source must land on the shard
	// wire.RxShard picks — the RX worker the transport queues that
	// source's datagrams to this node on.
	for i := 0; i < 64; i++ {
		src := wire.MustAddr(fmt.Sprintf("fd00::%x", i+1))
		want := wire.RxShard(src, local, workers)
		for conn := 0; conn < 4; conn++ {
			key := wire.FlowKey{Src: src, Service: wire.SvcNone, Conn: wire.ConnectionID(conn)}
			if got := c.shardFor(key); got != c.shards[want] {
				t.Fatalf("key %v routed off its source's shard", key)
			}
		}
	}
}

func TestSourceAffineCapacityConserved(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 7} {
		c := NewSourceAffine(1000, workers, wire.Addr{})
		if got := counters(c).Value("cache_capacity"); got != 1000 {
			t.Errorf("NewSourceAffine(1000, %d) capacity %v, want 1000", workers, got)
		}
	}
	// Degenerate inputs clamp instead of panicking.
	if got := NewSourceAffine(2, 8, wire.Addr{}).ShardCount(); got != 2 {
		t.Errorf("NewSourceAffine(2, 8, wire.Addr{}).ShardCount() = %d, want 2", got)
	}
	if got := NewSourceAffine(8, 0, wire.Addr{}).ShardCount(); got != 1 {
		t.Errorf("NewSourceAffine(8, 0, wire.Addr{}).ShardCount() = %d, want 1", got)
	}
}

func TestLookupNAccountsRun(t *testing.T) {
	c := NewSourceAffine(4096, 2, wire.Addr{})
	key := flowKey(0, 0)
	c.Add(key, Action{Drop: true})
	act, ok := c.LookupN(key, 32)
	if !ok || !act.Drop {
		t.Fatalf("LookupN hit = (%v, %v)", act, ok)
	}
	if hits, _ := c.HitCount(key); hits != 32 {
		t.Fatalf("entry hits = %d after LookupN(_, 32), want 32", hits)
	}
	if hits := counters(c).Value("cache_hits_total"); hits != 32 {
		t.Fatalf("cache hits = %v, want 32", hits)
	}
	// A run-coalesced miss records the whole run as misses.
	if _, ok := c.LookupN(flowKey(1, 9), 8); ok {
		t.Fatal("unexpected hit")
	}
	if misses := counters(c).Value("cache_misses_total"); misses != 8 {
		t.Fatalf("cache misses = %v, want 8", misses)
	}
}

func TestLookupNZeroAlloc(t *testing.T) {
	c := NewSourceAffine(4096, 4, wire.Addr{})
	key := flowKey(0, 0)
	c.Add(key, Action{Forward: []wire.Addr{wire.MustAddr("fd00::2")}})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.LookupN(key, 32); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupN allocated %.1f times per op, want 0", allocs)
	}
}
