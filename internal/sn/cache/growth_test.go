package cache

import (
	"runtime"
	"slices"
	"testing"

	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// A shard starts with no slots and grows to its capacity as rules arrive.
// These tests pin what growth must not change: node ids, the capacity the
// cache reports, and that an empty cache costs next to nothing.

// TestFanoutNodesSurviveGrowth: fanout nodes made while the shard holds one
// slot still name their rules after the slot array has grown to full and
// through a CLOCK eviction.
func TestFanoutNodesSurviveGrowth(t *testing.T) {
	const capacity = 64
	c := NewSharded(capacity, 1)
	s := c.shards[0]
	first, second := wire.MustAddr("fd00::a1"), wire.MustAddr("fd00::a2")
	via, dep := wire.MustAddr("fd00::b1"), wire.MustAddr("fd00::b2")
	twoHops, depending := wideKey(0), wideKey(1)

	c.Add(twoHops, Action{Forward: []wire.Addr{first, second}})
	if len(s.slots) != 1 || len(s.fan) != 1 {
		t.Fatalf("after one rule: %d slots, %d fanout nodes; want 1 and 1", len(s.slots), len(s.fan))
	}
	c.Add(depending, Action{Forward: []wire.Addr{via}, DependsOn: dep})
	// Referenced, so the CLOCK hand passes both by and evicts a filler.
	c.Lookup(twoHops)
	c.Lookup(depending)
	filler := Action{Forward: []wire.Addr{wire.MustAddr("fd00::f")}}
	for i := 2; i <= capacity; i++ {
		c.Add(wideKey(i), filler)
	}
	if st := counters(c); st.Value("cache_evictions_total") != 1 || st.Value("cache_entries") != capacity || len(s.slots) != capacity {
		t.Fatalf("after filling: %d slots, counters\n%s\nwant 1 eviction and %d rules in %d slots", len(s.slots), st, capacity, capacity)
	}
	checkShard(t, s)

	for _, a := range []wire.Addr{first, second} {
		if got := c.CollectDest(a, 0); !slices.Equal(got, []wire.FlowKey{twoHops}) {
			t.Fatalf("CollectDest(%v) = %v, want [%v]", a, got, twoHops)
		}
	}
	c.InvalidateDest(second)
	if _, ok := c.Lookup(twoHops); ok || c.Len() != capacity-1 {
		t.Fatalf("InvalidateDest of the second hop: rule present %v, %d rules left; want gone and %d", ok, c.Len(), capacity-1)
	}
	c.InvalidateDest(dep)
	if _, ok := c.Lookup(depending); ok || c.Len() != capacity-2 {
		t.Fatalf("InvalidateDest of the dependency: rule present %v, %d rules left; want gone and %d", ok, c.Len(), capacity-2)
	}
	checkShard(t, s)
}

// TestEmptyCacheHoldsNoSlots: a new cache of the SN's default size costs
// its shard headers, not its capacity, and still reports the capacity.
func TestEmptyCacheHoldsNoSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes heap sizes")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewSourceAffine(65536, 2, wire.Addr{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("an empty cache of 65 536 entries holds %d KiB, want at most 64", grew>>10)
	}
	if got := counters(c).Value("cache_capacity"); got != 65536 {
		t.Errorf("cache_capacity = %v, want 65536", got)
	}
}

// TestGaugesWhileGrowing reads the capacity and size gauges through the
// registry while Adds grow the cache from empty to full and through
// eviction (for -race: the gauges must not read the growing slot arrays).
func TestGaugesWhileGrowing(t *testing.T) {
	const capacity = 2048
	c := NewSourceAffine(capacity, 2, wire.Addr{})
	reg := telemetry.NewRegistry()
	c.RegisterTelemetry(reg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4*capacity; i++ {
			c.Add(wideKey(i), Action{Drop: true})
		}
	}()
	for growing := true; growing; {
		select {
		case <-done:
			growing = false
		default:
		}
		snap := reg.Snapshot()
		if got := snap.Value("cache_capacity"); got != capacity {
			t.Fatalf("cache_capacity = %v, want %d", got, capacity)
		}
		if n := snap.Value("cache_entries"); n < 0 || n > capacity {
			t.Fatalf("cache_entries = %v, want 0…%d", n, capacity)
		}
	}
	if st := reg.Snapshot(); st.Value("cache_entries") != capacity || st.Value("cache_evictions_total") == 0 {
		t.Fatalf("after %d Adds:\n%s\nwant a full cache that evicted", 4*capacity, st)
	}
}
