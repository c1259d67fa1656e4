package cache

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// counters reads c's counters as the SN does: through a registry c has
// registered its instruments into.
func counters(c *Cache) telemetry.Snapshot {
	r := telemetry.NewRegistry()
	c.RegisterTelemetry(r)
	return r.Snapshot()
}

func key(i int) wire.FlowKey {
	return wire.FlowKey{
		Src:     wire.MustAddr(fmt.Sprintf("fd00::%x", i+1)),
		Service: wire.SvcNull,
		Conn:    wire.ConnectionID(i),
	}
}

func TestAddLookup(t *testing.T) {
	c := New(4)
	dst := wire.MustAddr("fd00::99")
	c.Add(key(1), Action{Forward: []wire.Addr{dst}})
	a, ok := c.Lookup(key(1))
	if !ok {
		t.Fatal("miss after add")
	}
	if len(a.Forward) != 1 || a.Forward[0] != dst {
		t.Fatalf("action = %+v", a)
	}
	if _, ok := c.Lookup(key(2)); ok {
		t.Fatal("hit for absent key")
	}
}

func TestReplaceExisting(t *testing.T) {
	c := New(4)
	dst := wire.MustAddr("fd00::99")
	c.Add(key(1), Action{Drop: true})
	c.Add(key(1), Action{Forward: []wire.Addr{dst}})
	a, ok := c.Lookup(key(1))
	if !ok || a.Drop || len(a.Forward) != 1 || a.Forward[0] != dst {
		t.Fatalf("action = %+v ok=%v", a, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	c := New(4)
	for i := 0; i < 10; i++ {
		c.Add(key(i), Action{Drop: true})
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if ev := counters(c).Value("cache_evictions_total"); ev != 6 {
		t.Fatalf("evictions = %v, want 6", ev)
	}
}

func TestClockPrefersUnreferenced(t *testing.T) {
	c := New(4)
	for i := 0; i < 4; i++ {
		c.Add(key(i), Action{Drop: true})
	}
	// Touch keys 0..2 so only key 3 has a cleared ref bit after one sweep.
	for i := 0; i < 3; i++ {
		c.Lookup(key(i))
	}
	c.Add(key(9), Action{Drop: true})
	// key 3 should have been evicted in preference to the touched ones.
	if _, ok := c.Lookup(key(3)); ok {
		t.Fatal("recently-unused entry survived while referenced entries were candidates")
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Lookup(key(i)); !ok {
			t.Fatalf("referenced key %d evicted", i)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4)
	c.Add(key(1), Action{Drop: true})
	c.Invalidate(key(1))
	if _, ok := c.Lookup(key(1)); ok {
		t.Fatal("hit after invalidate")
	}
	// Invalidate of absent key is a no-op.
	c.Invalidate(key(2))
}

func TestInvalidateSource(t *testing.T) {
	c := New(8)
	src := wire.MustAddr("fd00::aa")
	for conn := 0; conn < 3; conn++ {
		c.Add(wire.FlowKey{Src: src, Service: wire.SvcNull, Conn: wire.ConnectionID(conn)}, Action{Drop: true})
	}
	c.Add(key(7), Action{Drop: true})
	c.InvalidateSource(src)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if _, ok := c.Lookup(key(7)); !ok {
		t.Fatal("unrelated entry removed")
	}
}

func TestHitCount(t *testing.T) {
	c := New(4)
	c.Add(key(1), Action{Drop: true})
	if n, ok := c.HitCount(key(1)); !ok || n != 0 {
		t.Fatalf("initial hit count %d ok=%v", n, ok)
	}
	for i := 0; i < 5; i++ {
		c.Lookup(key(1))
	}
	if n, _ := c.HitCount(key(1)); n != 5 {
		t.Fatalf("hit count %d, want 5", n)
	}
	if _, ok := c.HitCount(key(2)); ok {
		t.Fatal("hit count for absent key")
	}
}

func TestRecentlyUsed(t *testing.T) {
	c := New(4)
	now := time.Unix(1000, 0)
	c.SetNowFunc(func() time.Time { return now })
	c.Add(key(1), Action{Drop: true})
	c.Lookup(key(1))
	if !c.RecentlyUsed(key(1), time.Minute) {
		t.Fatal("fresh entry not recently used")
	}
	now = now.Add(2 * time.Minute)
	if c.RecentlyUsed(key(1), time.Minute) {
		t.Fatal("stale entry reported recently used")
	}
	if c.RecentlyUsed(key(9), time.Minute) {
		t.Fatal("absent entry reported recently used")
	}
}

func TestDisableForcesMisses(t *testing.T) {
	c := New(4)
	c.Add(key(1), Action{Drop: true})
	c.SetEnabled(false)
	if _, ok := c.Lookup(key(1)); ok {
		t.Fatal("hit while disabled")
	}
	c.SetEnabled(true)
	if _, ok := c.Lookup(key(1)); !ok {
		t.Fatal("entry lost after re-enable")
	}
}

func TestStats(t *testing.T) {
	c := New(4)
	c.Add(key(1), Action{Drop: true})
	c.Lookup(key(1))
	c.Lookup(key(2))
	st := counters(c)
	if st.Value("cache_hits_total") != 1 || st.Value("cache_misses_total") != 1 || st.Value("cache_inserts_total") != 1 ||
		st.Value("cache_entries") != 1 || st.Value("cache_capacity") != 4 {
		t.Fatalf("stats:\n%s", st)
	}
}

// Property (App. B.1): arbitrary interleavings of adds, lookups, and
// invalidations never corrupt the cache — every lookup result matches the
// last action added for that key, size never exceeds capacity, and a
// shadow model disagreement only ever manifests as a miss (eviction),
// never as a wrong action.
func TestCacheShadowModelProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Dst  uint8
	}
	f := func(ops []op) bool {
		const capacity = 8
		c := New(capacity)
		shadow := map[wire.FlowKey]Action{}
		for _, o := range ops {
			k := key(int(o.Key % 32))
			switch o.Kind % 3 {
			case 0:
				a := Action{Forward: []wire.Addr{wire.MustAddr(fmt.Sprintf("fd00::f%x", o.Dst))}}
				c.Add(k, a)
				shadow[k] = a
			case 1:
				got, ok := c.Lookup(k)
				if ok {
					want, inShadow := shadow[k]
					if !inShadow {
						return false // hit for a never-added key
					}
					if len(got.Forward) != len(want.Forward) || got.Forward[0] != want.Forward[0] {
						return false // wrong action
					}
				}
			case 2:
				c.Invalidate(k)
				delete(shadow, k)
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(1024)
	k := key(1)
	c.Add(k, Action{Forward: []wire.Addr{wire.MustAddr("fd00::9")}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(k); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkAddWithEviction(b *testing.B) {
	c := New(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(key(i%4096), Action{Drop: true})
	}
}

// TestAddKeepsNoCallerSlice: Add copies the next hops it is given, of a
// one-hop rule and of a fan-out, so a caller reusing its slice — as a packet
// does the one its verdict was built in — never rewrites an installed rule.
func TestAddKeepsNoCallerSlice(t *testing.T) {
	c := New(4)
	a, b, other := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b"), wire.MustAddr("fd00::ee")
	one := []wire.Addr{a}
	two := []wire.Addr{a, b}
	c.Add(key(1), Action{Forward: one})
	c.Add(key(2), Action{Forward: two})
	one[0], two[0], two[1] = other, other, other
	if got, ok := c.Lookup(key(1)); !ok || len(got.Forward) != 1 || got.Forward[0] != a {
		t.Fatalf("one-hop rule after the caller's slice changed: %+v, %v; want forward to %v", got, ok, a)
	}
	if got, ok := c.Lookup(key(2)); !ok || len(got.Forward) != 2 || got.Forward[0] != a || got.Forward[1] != b {
		t.Fatalf("fan-out rule after the caller's slice changed: %+v, %v; want forward to %v and %v", got, ok, a, b)
	}
	if keys := c.CollectDest(other, 0); len(keys) != 0 {
		t.Fatalf("CollectDest(%v) = %v; the index followed the caller's slice", other, keys)
	}
}

// TestOneHopRulesShareOneSlice: every rule of a shard to one address alone
// holds the same slice, made with the first of them and dropped with the
// last, so installing the rest allocates no next-hop set.
func TestOneHopRulesShareOneSlice(t *testing.T) {
	c := NewSharded(64, 1)
	dst := wire.MustAddr("fd00::d")
	for i := 0; i < 8; i++ {
		c.Add(key(i), Action{Forward: []wire.Addr{dst}})
	}
	first, _ := c.Lookup(key(0))
	for i := 1; i < 8; i++ {
		if got, _ := c.Lookup(key(i)); &got.Forward[0] != &first.Forward[0] {
			t.Fatalf("rule %d forwards to %v through its own slice, not the shared one", i, dst)
		}
	}
	k, again := key(3), Action{Forward: []wire.Addr{dst}, Drop: true}
	if n := testing.AllocsPerRun(100, func() { c.Invalidate(k); c.Add(k, again) }); n != 0 {
		t.Fatalf("re-installing a one-hop rule allocated %.1f times, want 0", n)
	}
	c.InvalidateDest(dst)
	if _, ok := c.shards[0].heads[byDst][dst]; ok {
		t.Fatalf("the head of %v, and its one-hop slice, outlived every rule to it", dst)
	}
	c.Add(key(0), Action{Forward: []wire.Addr{dst}})
	if got, _ := c.Lookup(key(0)); &got.Forward[0] == &first.Forward[0] {
		t.Fatal("a rule after the last one went reuses the dropped slice")
	}
	checkShard(t, c.shards[0])
}
