package cache

import (
	"fmt"
	"testing"

	"interedge/internal/wire"
)

// TestAddCopiesRewrite: Add copies the header rewrite it is given, on a new
// rule and on a replaced one, so a caller reusing its slice — as a packet
// does the bytes its verdict's rewrite was written into — never rewrites an
// installed rule.
func TestAddCopiesRewrite(t *testing.T) {
	c := New(4)
	hop := []wire.Addr{wire.MustAddr("fd00::d")}
	buf := []byte("the first rewrite")
	c.Add(key(1), Action{Forward: hop, RewriteHeader: buf})
	copy(buf, "overwritten bytes")
	got, ok := c.Lookup(key(1))
	if !ok || string(got.RewriteHeader) != "the first rewrite" {
		t.Fatalf("new rule after the caller's slice changed: %q, %v; want %q", got.RewriteHeader, ok, "the first rewrite")
	}
	got.Release()

	buf = []byte("a second rewrite!")
	c.Add(key(1), Action{Forward: hop, RewriteHeader: buf})
	copy(buf, "overwritten bytes")
	got, ok = c.Lookup(key(1))
	if !ok || string(got.RewriteHeader) != "a second rewrite!" {
		t.Fatalf("replaced rule after the caller's slice changed: %q, %v; want %q", got.RewriteHeader, ok, "a second rewrite!")
	}
	got.Release()

	c.Add(key(1), Action{Forward: hop})
	if got, ok := c.Lookup(key(1)); !ok || got.RewriteHeader != nil {
		t.Fatalf("a rule replaced by one without a rewrite still rewrites: %q, %v", got.RewriteHeader, ok)
	}
}

// TestPinnedRewriteNeverChanges: the rewrite a lookup returns keeps its bytes
// until Release, whatever happens to the slot that owns them. Each step pins
// bytes its rule's slot still holds, then changes the slot through one path
// of Add: the rule is replaced with a same-size rewrite; it loses its rewrite
// and gets another; it is invalidated and another rule takes the freed slot;
// it is evicted and another rule takes its slot. Once released, the slot's
// bytes serve the next rule: a lookup, its release and a replacement with a
// same-size rewrite allocate nothing.
func TestPinnedRewriteNeverChanges(t *testing.T) {
	c := NewSharded(4, 1)
	s := c.shards[0]
	hop := []wire.Addr{wire.MustAddr("fd00::d")}
	n := 0
	// install gives k a rule whose rewrite, of the one size, no rule had.
	install := func(k wire.FlowKey) {
		n++
		c.Add(k, Action{Forward: hop, RewriteHeader: fmt.Appendf(nil, "rewrite %04d", n)})
	}
	// pin looks k up and returns the action, its bytes and k's slot; the
	// pinned bytes must be the slot's own.
	pin := func(k wire.FlowKey) (Action, string, int32) {
		t.Helper()
		a, ok := c.Lookup(k)
		i, in := s.index[k]
		if !ok || !in || a.pin == nil || a.pin != s.slots[i].action.rewrite {
			t.Fatalf("lookup of %v pinned no rewrite its slot holds (hit %v)", k, ok)
		}
		return a, string(a.RewriteHeader), i
	}
	// unchanged fails if a's bytes no longer read want, then releases a.
	unchanged := func(a Action, want, after string) {
		t.Helper()
		if string(a.RewriteHeader) != want {
			t.Fatalf("pinned rewrite reads %q after %s, want %q", a.RewriteHeader, after, want)
		}
		a.Release()
	}

	k := key(0)
	install(k)
	a, want, _ := pin(k)
	install(k)
	unchanged(a, want, "its rule was replaced with a same-size rewrite")

	a, want, _ = pin(k)
	c.Add(k, Action{Forward: hop})
	install(k)
	unchanged(a, want, "its rule lost its rewrite and got another")

	a, want, i := pin(k)
	c.Invalidate(k)
	other := key(1)
	install(other)
	if j, ok := s.index[other]; !ok || j != i {
		t.Fatalf("the next rule took slot %d (%v), not the one its invalidation freed, %d", j, ok, i)
	}
	unchanged(a, want, "its rule was invalidated and another took the slot")

	a, want, i = pin(other)
	next := 2
	for ; next < 20; next++ {
		if _, ok := s.index[other]; !ok {
			break
		}
		install(key(next))
	}
	if _, ok := s.index[other]; ok || s.index[s.slots[i].key] != i {
		t.Fatalf("%d more rules in a 4-slot shard never evicted a rule into its slot", next-2)
	}
	unchanged(a, want, "its rule was evicted and another took the slot")
	checkShard(t, s)

	last, same := key(next-1), []byte("rewrite 9999")
	if allocs := testing.AllocsPerRun(100, func() {
		a, ok := c.Lookup(last)
		if !ok {
			t.Fatal("miss")
		}
		a.Release()
		c.Add(last, Action{Forward: hop, RewriteHeader: same})
	}); allocs != 0 {
		t.Fatalf("a lookup, its release and a same-size rewrite allocated %.1f times, want 0", allocs)
	}
}
