package cache

import (
	"fmt"
	"testing"
	"unsafe"

	"interedge/internal/wire"
)

// TestEntrySize pins the slot at the size it had before it carried index
// links: a 65536-slot cache is half an SN's heap, so 16 bytes more per slot
// would show as +5 % on the benchmark's heap_kb_per_host.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 136 {
		t.Fatalf("entry is %d bytes, want <= 136", got)
	}
}

// wideKey is a distinct key for each i below 2^28: key runs out of address
// digits at 2^16, flowKey(0, i) likewise.
func wideKey(i int) wire.FlowKey { return flowKey(i>>12, i&0xfff) }

// fullCache returns a single-shard cache filled to capacity in slot order,
// the hand on slot 0: filler rules first, then `matching` rules from source
// src and `matching` rules forwarding to dst (behind a first hop of their
// own, so they are indexed through fanout nodes).
func fullCache(capacity, matching int, src, dst wire.Addr) (*Cache, *shard) {
	c := NewSharded(capacity, 1)
	filler := Action{Forward: []wire.Addr{wire.MustAddr("fd00::f")}}
	for i := 0; i < capacity-2*matching; i++ {
		c.Add(wideKey(i), filler)
	}
	for i := 0; i < matching; i++ {
		c.Add(wire.FlowKey{Src: src, Service: wire.SvcIPFwd, Conn: wire.ConnectionID(i)}, filler)
		c.Add(wideKey(capacity+i), Action{Forward: []wire.Addr{wire.MustAddr("fd00::e"), dst}})
	}
	return c, c.shards[0]
}

// TestWritesExamineOnlyWhatChanges is the complexity gate. It counts the
// slots each write looks at, reads no clock, and must find the same counts
// in a shard of 1 024 slots and one of 65 536: a full-shard Add looks at the
// victim and the slots whose reference bit it clears on the way; the
// by-address operations look at the matching rules and nothing else.
func TestWritesExamineOnlyWhatChanges(t *testing.T) {
	src, dst := wire.MustAddr("fd00::5"), wire.MustAddr("fd00::d")
	const matching, referenced = 8, 5
	for _, capacity := range []int{1024, 65536} {
		c, s := fullCache(capacity, matching, src, dst)
		examined := func(op func()) uint64 {
			before := s.examined
			op()
			return s.examined - before
		}
		expect := func(what string, got, want uint64) {
			t.Helper()
			if got != want {
				t.Errorf("capacity %d: %s examined %d slots, want %d", capacity, what, got, want)
			}
		}
		for i := 0; i < referenced; i++ {
			c.Lookup(wideKey(i))
		}
		expect("full-shard Add", examined(func() { c.Add(wideKey(capacity+matching), Action{Drop: true}) }), referenced+1)
		expect("replacing Add", examined(func() { c.Add(wideKey(capacity+matching), Action{Deliver: true}) }), 0)
		expect("CollectDest", examined(func() { c.CollectDest(dst, 3) }), matching)
		expect("InvalidateDest", examined(func() { c.InvalidateDest(dst) }), matching)
		expect("InvalidateSource", examined(func() { c.InvalidateSource(src) }), matching)
		expect("second InvalidateDest", examined(func() { c.InvalidateDest(dst) }), 0)
		expect("Add into a freed slot", examined(func() { c.Add(wideKey(capacity+matching+1), Action{Drop: true}) }), 0)
		if got, want := c.Len(), capacity-2*matching+1; got != want {
			t.Errorf("capacity %d: %d rules left, want %d", capacity, got, want)
		}
		checkShard(t, s)
	}
}

// TestAddZeroAlloc: in the steady state neither a fresh connection's rule
// (installed, then removed) nor an evicting Add allocates — the reverse
// indexes are links inside the slots, not a slice per address.
func TestAddZeroAlloc(t *testing.T) {
	src, dst := wire.MustAddr("fd00::5"), wire.MustAddr("fd00::d")
	c, _ := fullCache(1024, 8, src, dst)
	action := Action{Forward: []wire.Addr{dst}}
	next := 0
	fresh := func() wire.FlowKey {
		next++
		return wire.FlowKey{Src: src, Service: wire.SvcEcho, Conn: wire.ConnectionID(next)}
	}
	if allocs := testing.AllocsPerRun(2000, func() { c.Add(fresh(), action) }); allocs != 0 {
		t.Errorf("evicting Add allocated %.1f times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(2000, func() {
		k := fresh()
		c.Add(k, action)
		c.Invalidate(k)
	}); allocs != 0 {
		t.Errorf("Add + Invalidate allocated %.1f times per pair, want 0", allocs)
	}
}

func BenchmarkAddFullShard(b *testing.B) {
	for _, capacity := range []int{1024, 65536} {
		b.Run(fmt.Sprint(capacity), func(b *testing.B) {
			src, dst := wire.MustAddr("fd00::5"), wire.MustAddr("fd00::d")
			c, _ := fullCache(capacity, 8, src, dst)
			action := Action{Forward: []wire.Addr{dst}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(wire.FlowKey{Src: src, Service: wire.SvcEcho, Conn: wire.ConnectionID(i)}, action)
			}
		})
	}
}

// BenchmarkInvalidateDest times a host's eight rules being installed in a
// full shard and removed again by one InvalidateDest, as a lookup republish
// does on every SN.
func BenchmarkInvalidateDest(b *testing.B) {
	for _, capacity := range []int{1024, 65536} {
		b.Run(fmt.Sprint(capacity), func(b *testing.B) {
			src, dst := wire.MustAddr("fd00::5"), wire.MustAddr("fd00::d")
			c, _ := fullCache(capacity, 8, src, dst)
			action := Action{Forward: []wire.Addr{dst}}
			var keys [8]wire.FlowKey
			for j := range keys {
				keys[j] = wideKey(capacity + 8 + j)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					c.Add(k, action)
				}
				c.InvalidateDest(dst)
			}
		})
	}
}
