package cache

import (
	"fmt"
	"sync"
	"testing"

	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

func flowKey(g, i int) wire.FlowKey {
	return wire.FlowKey{
		Src:     wire.MustAddr(fmt.Sprintf("fd00::%x:%x", g+1, i+1)),
		Service: wire.SvcNone,
		Conn:    wire.ConnectionID(i),
	}
}

func TestShardCountRounding(t *testing.T) {
	cases := []struct {
		capacity, shards, want int
	}{
		{100, 3, 4},   // rounds up to a power of two
		{100, 1, 1},   // explicit single shard
		{2, 8, 2},     // clamped: every shard needs a slot
		{8192, 8, 8},  // exact power of two
		{8192, 0, 1},  // nonsense shard counts fall back to one
		{8192, -4, 1}, // nonsense shard counts fall back to one
	}
	for _, c := range cases {
		if got := NewSharded(c.capacity, c.shards).ShardCount(); got != c.want {
			t.Errorf("NewSharded(%d, %d).ShardCount() = %d, want %d", c.capacity, c.shards, got, c.want)
		}
	}
	// Small auto-sized caches stay single-shard so eviction order tests
	// keep their exact semantics.
	if got := New(4).ShardCount(); got != 1 {
		t.Errorf("New(4).ShardCount() = %d, want 1", got)
	}
}

func TestShardedCapacityConserved(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		c := NewSharded(1000, shards) // not divisible by 4 or 8
		if got := counters(c).Value("cache_capacity"); got != 1000 {
			t.Errorf("NewSharded(1000, %d) capacity %v, want 1000", shards, got)
		}
	}
}

// TestStripedConcurrent hammers one striped cache from many goroutines
// mixing every operation; run under -race this validates the per-shard
// locking, and the final counters must be self-consistent.
func TestStripedConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 2000
	c := NewSharded(8192, 8)
	if c.ShardCount() != 8 {
		t.Fatalf("ShardCount() = %d, want 8", c.ShardCount())
	}
	reg := telemetry.NewRegistry()
	c.RegisterTelemetry(reg)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := flowKey(g, i)
				c.Add(key, Action{Drop: true})
				if act, ok := c.Lookup(key); ok && !act.Drop {
					t.Errorf("lookup returned foreign action for %v", key)
				}
				switch {
				case i%7 == 0:
					c.Invalidate(key)
				case i%31 == 0:
					reg.Snapshot()
					c.Len()
					c.HitCount(key)
				case i%97 == 0:
					c.InvalidateSource(key.Src)
				}
			}
		}(g)
	}
	wg.Wait()

	st := reg.Snapshot()
	if got := st.Value("cache_inserts_total"); got != goroutines*perG {
		t.Errorf("inserts = %v, want %d", got, goroutines*perG)
	}
	size := st.Value("cache_entries")
	if size != float64(c.Len()) {
		t.Errorf("snapshot size %v != Len %d", size, c.Len())
	}
	if capacity := st.Value("cache_capacity"); size > capacity {
		t.Errorf("size %v exceeds capacity %v", size, capacity)
	}
	if got := st.Value("cache_hits_total") + st.Value("cache_misses_total"); got < goroutines*perG {
		t.Errorf("hits+misses = %v, want >= %d", got, goroutines*perG)
	}
}

// TestStripedKeysRoute checks entries added through the striped façade are
// found again regardless of which shard they hash to, and that eviction in
// one shard never disturbs another shard's entries beyond capacity limits.
func TestStripedKeysRoute(t *testing.T) {
	c := NewSharded(4096, 4)
	const n = 1024 // well under capacity: nothing should evict
	for i := 0; i < n; i++ {
		c.Add(flowKey(i%5, i), Action{Drop: true})
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Lookup(flowKey(i%5, i)); !ok {
			t.Fatalf("key %d missing after insert below capacity", i)
		}
	}
	if ev := counters(c).Value("cache_evictions_total"); ev != 0 {
		t.Fatalf("evictions = %v below capacity, want 0", ev)
	}
}

// TestLookupZeroAlloc pins the fast-path budget: a decision-cache hit must
// not allocate.
func TestLookupZeroAlloc(t *testing.T) {
	c := NewSharded(4096, 4)
	key := flowKey(0, 0)
	c.Add(key, Action{Forward: []wire.Addr{wire.MustAddr("fd00::2")}})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Lookup(key); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocated %.1f times per op, want 0", allocs)
	}
}
