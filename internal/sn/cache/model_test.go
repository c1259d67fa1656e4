package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"interedge/internal/wire"
)

// The reference the indexed cache is checked against: the whole-table scans
// it replaced (kept here, and only here, as the oracle), a model of what the
// cache must hold, and a structural check of every shard. runOps drives both
// with the same operations and compares after each one.

// refRule is what the model remembers of an installed rule.
type refRule struct {
	action   Action
	hits     uint64
	lastUsed int64
}

// refClockVictim is the seed's second-chance scan over a full shard, run on a
// copy of the reference bits: the slot Add must evict next.
func refClockVictim(s *shard) int32 {
	ref := make([]bool, len(s.slots))
	for i := range s.slots {
		ref[i] = s.slots[i].ref
	}
	for hand := s.hand; ; hand = (hand + 1) % int32(len(ref)) {
		if !ref[hand] {
			return hand
		}
		ref[hand] = false
	}
}

// refCollectDest is the seed's CollectDest: scan every rule of every shard,
// keep the ones forwarding to dst, most recently used first within a shard.
func refCollectDest(c *Cache, dst wire.Addr, max int) []wire.FlowKey {
	var out []wire.FlowKey
	for _, s := range c.shards {
		var keys []wire.FlowKey
		for key, i := range s.index {
			if slices.Contains(s.slots[i].action.forward, dst) {
				keys = append(keys, key)
			}
		}
		sort.Slice(keys, func(a, b int) bool {
			return s.slots[s.index[keys[a]]].lastUsed > s.slots[s.index[keys[b]]].lastUsed
		})
		out = append(out, keys...)
		if max > 0 && len(out) >= max {
			return out[:max]
		}
	}
	return out
}

// checkShard fails unless the table, the free slots, both reverse indexes
// and the fanout nodes of s all describe the same set of rules. The index
// lists are compared with a scan of every slot.
func checkShard(t testing.TB, s *shard) {
	t.Helper()
	n := int32(len(s.slots))
	live := make(map[int32]bool)
	for k, i := range s.index {
		if s.slots[i].key != k || live[i] {
			t.Fatalf("index[%v] = slot %d, which holds %v (shared: %v)", k, i, s.slots[i].key, live[i])
		}
		live[i] = true
	}
	empty := make(map[int32]bool)
	for i := s.free; i != none; i = s.slots[i].links[bySrc].next {
		if live[i] || empty[i] || i >= s.fresh {
			t.Fatalf("free list holds slot %d: live %v, twice %v, fresh from %d", i, live[i], empty[i], s.fresh)
		}
		empty[i] = true
	}
	for i := s.fresh; i < n; i++ {
		if live[i] {
			t.Fatalf("slot %d is live but fresh starts at %d", i, s.fresh)
		}
		empty[i] = true
	}
	if len(live)+len(empty) != int(n) {
		t.Fatalf("%d live + %d empty slots, want %d in all", len(live), len(empty), n)
	}

	var want, got [2]map[wire.Addr]map[int32]bool
	add := func(m map[wire.Addr]map[int32]bool, a wire.Addr, i int32) bool {
		if m[a] == nil {
			m[a] = make(map[int32]bool)
		}
		dup := m[a][i]
		m[a][i] = true
		return !dup
	}
	for ix := range want {
		want[ix], got[ix] = make(map[wire.Addr]map[int32]bool), make(map[wire.Addr]map[int32]bool)
	}
	fanUsed := 0
	for i := range live {
		e := &s.slots[i]
		add(want[bySrc], e.key.Src, i)
		for _, a := range e.action.forward {
			add(want[byDst], a, i)
		}
		if dep := s.dependsOn(i); dep.IsValid() {
			if slices.Contains(e.action.forward, dep) {
				t.Fatalf("slot %d has a dependency node for its own next hop %v", i, dep)
			}
			add(want[byDst], dep, i)
		}
		for id := e.more; id != none; id = s.fanNode(id).sib {
			if s.fanNode(id).slot != i {
				t.Fatalf("fanout node %d of slot %d names slot %d", id, i, s.fanNode(id).slot)
			}
			fanUsed++
		}
	}
	for ix := range got {
		for a, h := range s.heads[ix] {
			if s.link(ix, h).prev != none {
				t.Fatalf("index %d: head of %v has a predecessor", ix, a)
			}
			for id := h; id != none; id = s.link(ix, id).next {
				if next := s.link(ix, id).next; next != none && s.link(ix, next).prev != id {
					t.Fatalf("index %d, %v: node %d → %d, whose prev is %d", ix, a, id, next, s.link(ix, next).prev)
				}
				if !add(got[ix], a, s.slotOf(id)) {
					t.Fatalf("index %d lists slot %d twice under %v", ix, s.slotOf(id), a)
				}
			}
		}
		if !reflect.DeepEqual(got[ix], want[ix]) {
			t.Fatalf("index %d lists %v, a scan of the slots finds %v", ix, got[ix], want[ix])
		}
	}
	fanFree := 0
	for id := s.fanFree; id != none; id = s.fanNode(id).sib {
		fanFree++
	}
	if fanUsed+fanFree != len(s.fan) {
		t.Fatalf("%d fanout nodes in use + %d free, want %d", fanUsed, fanFree, len(s.fan))
	}
}

// checkCache checks every shard's structure and that the cache holds exactly
// the model's rules, with the model's actions, hit counts and use times.
func checkCache(t testing.TB, c *Cache, model map[wire.FlowKey]*refRule) {
	t.Helper()
	size := 0
	for _, s := range c.shards {
		checkShard(t, s)
		size += len(s.index)
		for k, i := range s.index {
			e, m := &s.slots[i], model[k]
			if m == nil {
				t.Fatalf("cache holds %v, the model does not", k)
			}
			got := e.action.action(s.dependsOn(i))
			if !reflect.DeepEqual(got, m.action) || e.hits != m.hits || e.lastUsed != m.lastUsed {
				t.Fatalf("%v: cache has %+v hits %d used %d, model %+v hits %d used %d",
					k, got, e.hits, e.lastUsed, m.action, m.hits, m.lastUsed)
			}
		}
	}
	if size != len(model) {
		t.Fatalf("cache holds %d rules, the model %d", size, len(model))
	}
}

var (
	opSrcs = testAddrs("fd00::a:%x", 8)
	opDsts = testAddrs("fd00::d:%x", 6)
)

func testAddrs(format string, n int) []wire.Addr {
	out := make([]wire.Addr, n)
	for i := range out {
		out[i] = wire.MustAddr(fmt.Sprintf(format, i+1))
	}
	return out
}

// opKey picks one of 128 flow keys: 8 sources × 16 connections.
func opKey(b byte) wire.FlowKey {
	return wire.FlowKey{Src: opSrcs[b%8], Service: wire.SvcIPFwd, Conn: wire.ConnectionID(b / 8 % 16)}
}

// opAction picks a rule shape: no next hop, one, two, one listed twice
// beside another, or four with the first repeated last; the upper half of
// the shapes also depend on an address they do not forward to.
func opAction(d, shape byte) Action {
	hop := func(i byte) wire.Addr { return opDsts[int(d+i)%len(opDsts)] }
	if shape >= 128 {
		act := opAction(d, shape-128)
		act.DependsOn = hop(4)
		return act
	}
	switch shape % 6 {
	case 0:
		return Action{Drop: true}
	case 1, 2:
		return Action{Forward: []wire.Addr{hop(0)}}
	case 3:
		return Action{Forward: []wire.Addr{hop(0), hop(1)}}
	case 4:
		return Action{Forward: []wire.Addr{hop(0), hop(0), hop(2)}, Deliver: true}
	default:
		return Action{Forward: []wire.Addr{hop(0), hop(1), hop(3), hop(0)}}
	}
}

// runOps decodes data four bytes an operation — kind, key, next hop, shape —
// applies each to c and to the model, and compares after every one. It
// returns the cache's final counters.
func runOps(t testing.TB, c *Cache, data []byte) (st Stats) {
	t.Helper()
	var now int64
	c.SetNowFunc(func() time.Time { return time.Unix(0, now) })
	model := make(map[wire.FlowKey]*refRule)
	var want Stats
	invalidate := func(cause int, match func(wire.FlowKey, *refRule) bool) {
		for k, r := range model {
			if match(k, r) {
				delete(model, k)
				want.Invalidated[cause]++
			}
		}
	}
	for ; len(data) >= 4; data = data[4:] {
		now++
		key, dst := opKey(data[1]), opDsts[int(data[2])%len(opDsts)]
		switch kind := data[0] % 16; {
		case kind < 6:
			act := opAction(data[2], data[3])
			kept := act
			if slices.Contains(act.Forward, act.DependsOn) {
				kept.DependsOn = wire.Addr{} // already indexed as a next hop
			}
			if r := model[key]; r != nil {
				r.action, r.lastUsed = kept, now
			} else {
				if s := c.shardFor(key); len(s.index) == len(s.slots) {
					delete(model, s.slots[refClockVictim(s)].key)
					want.Evictions++
				}
				model[key] = &refRule{action: kept, lastUsed: now}
			}
			c.Add(key, act)
		case kind < 10:
			n := uint64(data[3]%4 + 1)
			act, ok := c.LookupN(key, n)
			r := model[key]
			if ok {
				act.DependsOn = r.action.DependsOn // Lookup does not report it
			}
			if ok != (r != nil) || ok && !reflect.DeepEqual(act, r.action) {
				t.Fatalf("LookupN(%v) = %+v, %v; model has %+v", key, act, ok, r)
			}
			if ok {
				r.hits, r.lastUsed = r.hits+n, now
			}
			if hits, ok := c.HitCount(key); ok != (r != nil) || ok && hits != r.hits {
				t.Fatalf("HitCount(%v) = %d, %v; model has %+v", key, hits, ok, r)
			}
		case kind < 12:
			c.Invalidate(key)
			invalidate(byKey, func(k wire.FlowKey, _ *refRule) bool { return k == key })
		case kind == 12:
			c.InvalidateSource(key.Src)
			invalidate(bySrc, func(k wire.FlowKey, _ *refRule) bool { return k.Src == key.Src })
		case kind == 13:
			c.InvalidateDest(dst)
			invalidate(byDst, func(_ wire.FlowKey, r *refRule) bool {
				return slices.Contains(r.action.Forward, dst) || r.action.DependsOn == dst
			})
		default:
			max := int(data[3] % 4)
			if got, ref := c.CollectDest(dst, max), refCollectDest(c, dst, max); !slices.Equal(got, ref) {
				t.Fatalf("CollectDest(%v, %d) = %v, the scan finds %v", dst, max, got, ref)
			}
		}
		checkCache(t, c, model)
		if st = c.Snapshot(); st.Evictions != want.Evictions || st.Invalidated != want.Invalidated {
			t.Fatalf("evictions %d invalidated %v, model has %d and %v",
				st.Evictions, st.Invalidated, want.Evictions, want.Invalidated)
		}
	}
	return st
}

// opCaches builds one small cache per constructor, so that shards fill.
func opCaches() map[string]*Cache {
	return map[string]*Cache{
		"New":             New(16),
		"NewSharded":      NewSharded(40, 4),
		"NewSourceAffine": NewSourceAffine(30, 3),
	}
}

func randomOps(seed int64, n int) []byte {
	data := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestCacheOpsMatchReference: random operation sequences leave the indexed
// cache and the scanning reference in the same state after every step, and
// the sequences are long enough to evict and to invalidate in every way.
func TestCacheOpsMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for name, c := range opCaches() {
			st := runOps(t, c, randomOps(seed, 4000))
			if st.Evictions == 0 || st.Invalidated[bySrc] == 0 || st.Invalidated[byDst] == 0 || st.Invalidated[byKey] == 0 {
				t.Errorf("seed %d, %s: sequence too tame to test anything: %+v", seed, name, st)
			}
		}
	}
}

func FuzzCacheOps(f *testing.F) {
	f.Add(randomOps(1, 64))
	f.Add([]byte{0, 1, 2, 5, 0, 9, 2, 3, 13, 0, 2, 0, 0, 1, 3, 4, 12, 1, 0, 0, 15, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range opCaches() {
			runOps(t, c, data)
		}
	})
}

// TestCacheOpsConcurrent runs the same operation mix from several goroutines
// at once (for -race), then checks every shard's structure.
func TestCacheOpsConcurrent(t *testing.T) {
	for name, c := range opCaches() {
		var wg sync.WaitGroup
		for g := int64(0); g < 4; g++ {
			wg.Add(1)
			go func(data []byte) {
				defer wg.Done()
				for ; len(data) >= 4; data = data[4:] {
					key, dst := opKey(data[1]), opDsts[int(data[2])%len(opDsts)]
					switch kind := data[0] % 16; {
					case kind < 6:
						c.Add(key, opAction(data[2], data[3]))
					case kind < 10:
						c.LookupN(key, 1)
					case kind < 12:
						c.Invalidate(key)
					case kind == 12:
						c.InvalidateSource(key.Src)
					case kind == 13:
						c.InvalidateDest(dst)
					default:
						c.CollectDest(dst, int(data[3]%4))
					}
				}
			}(randomOps(g, 3000))
		}
		wg.Wait()
		for _, s := range c.shards {
			checkShard(t, s)
		}
		if st := c.Snapshot(); st.Size != c.Len() || st.Size > st.Capacity {
			t.Errorf("%s: size %d, Len %d, capacity %d", name, st.Size, c.Len(), st.Capacity)
		}
	}
}
