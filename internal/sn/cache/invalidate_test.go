package cache

import (
	"testing"

	"interedge/internal/wire"
)

func TestInvalidateDestRemovesOnlyMatchingRoutes(t *testing.T) {
	c := NewSharded(64, 4)
	hop1 := wire.MustAddr("fd00::a")
	hop2 := wire.MustAddr("fd00::b")

	k1 := wire.FlowKey{Src: wire.MustAddr("fd00::1"), Service: wire.SvcEcho, Conn: 1}
	k2 := wire.FlowKey{Src: wire.MustAddr("fd00::2"), Service: wire.SvcEcho, Conn: 2}
	k3 := wire.FlowKey{Src: wire.MustAddr("fd00::3"), Service: wire.SvcEcho, Conn: 3}
	k4 := wire.FlowKey{Src: wire.MustAddr("fd00::4"), Service: wire.SvcEcho, Conn: 4}

	c.Add(k1, Action{Forward: []wire.Addr{hop1}})
	c.Add(k2, Action{Forward: []wire.Addr{hop2}})
	c.Add(k3, Action{Forward: []wire.Addr{hop2, hop1}}) // multi-dest, matches too
	c.Add(k4, Action{Drop: true})                       // no forward at all

	c.InvalidateDest(hop1)

	if _, ok := c.Lookup(k1); ok {
		t.Fatal("route through dead hop survived")
	}
	if _, ok := c.Lookup(k3); ok {
		t.Fatal("multi-dest route through dead hop survived")
	}
	if _, ok := c.Lookup(k2); !ok {
		t.Fatal("route through live hop was invalidated")
	}
	if _, ok := c.Lookup(k4); !ok {
		t.Fatal("non-forwarding entry was invalidated")
	}
}

func TestInvalidateDestAcrossShards(t *testing.T) {
	c := New(4096)
	hop := wire.MustAddr("fd00::a")
	alloc := 0
	next := func() wire.Addr {
		alloc++
		return wire.MustAddr("fd00::" + string(rune('1'+alloc%8)) + "00")
	}
	keys := make([]wire.FlowKey, 0, 256)
	for i := 0; i < 256; i++ {
		k := wire.FlowKey{Src: next(), Service: wire.SvcEcho, Conn: wire.ConnectionID(i)}
		keys = append(keys, k)
		c.Add(k, Action{Forward: []wire.Addr{hop}})
	}
	c.InvalidateDest(hop)
	for _, k := range keys {
		if _, ok := c.Lookup(k); ok {
			t.Fatalf("entry %v survived InvalidateDest", k)
		}
	}
}

// TestInvalidateDestRemovesDependents: a rule goes with the address it was
// resolved for as it goes with its next hop — whether or not it has a next
// hop, and again after being replaced — while CollectDest, which gathers
// rules toward an address, leaves a mere dependent out.
func TestInvalidateDestRemovesDependents(t *testing.T) {
	c := NewSharded(64, 4)
	dstSN, host, other := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::1:1"), wire.MustAddr("fd00::1:2")
	key := func(i int) wire.FlowKey {
		return wire.FlowKey{Src: wire.MustAddr("fd00::2"), Service: wire.SvcIPFwd, Conn: wire.ConnectionID(i)}
	}
	c.Add(key(1), Action{Forward: []wire.Addr{dstSN}, DependsOn: host})
	c.Add(key(2), Action{Forward: []wire.Addr{dstSN}, DependsOn: other})
	c.Add(key(3), Action{Drop: true, DependsOn: host})
	c.Add(key(4), Action{Forward: []wire.Addr{host}})
	c.Add(key(5), Action{Forward: []wire.Addr{dstSN}, DependsOn: other})
	c.Add(key(5), Action{Forward: []wire.Addr{dstSN}, DependsOn: host}) // re-resolved

	if got := c.CollectDest(host, 0); len(got) != 1 || got[0] != key(4) {
		t.Fatalf("CollectDest(host) = %v, want only the rule forwarding to it", got)
	}
	c.InvalidateDest(host)
	for i, want := range map[int]bool{1: false, 2: true, 3: false, 4: false, 5: false} {
		if _, ok := c.Lookup(key(i)); ok != want {
			t.Errorf("rule %d present = %v after InvalidateDest(host), want %v", i, ok, want)
		}
	}
	if st := c.Snapshot(); st.Invalidated[byDst] != 4 {
		t.Fatalf("%d rules invalidated by destination, want 4", st.Invalidated[byDst])
	}
	c.InvalidateDest(dstSN)
	if c.Len() != 0 {
		t.Fatalf("%d rules left after their next hop went", c.Len())
	}
	for _, s := range c.shards {
		checkShard(t, s)
	}
}
