// Package cache implements the SN decision cache described in §4 and
// Appendix B: an exact-match match-action table keyed by (L3 source,
// service ID, connection ID). Service modules populate it so the
// pipe-terminus can act on packets without invoking the module.
//
// Per Appendix B.1, implementations may "arbitrarily evict entries, even
// when the connections they are associated with are active" — correctness
// never depends on an entry being present, and modules must be able to
// recompute any decision. This implementation uses CLOCK (second-chance)
// eviction, tracks per-entry hit counts, and exposes the "recently used"
// API Appendix B.2 specifies for services managing their own connection
// state.
//
// To keep the sharded pipe-terminus workers from serializing on a single
// lock, the table is striped across 2^k independent CLOCK shards selected
// by a hash of the flow key. Each shard has its own lock, slots, hand, and
// counters; the registry instruments sum the shards. Striping is invisible
// to correctness: eviction was already allowed to be arbitrary (B.1), so
// per-shard CLOCK sweeps are just one more admissible eviction order.
//
// Capacity is a bound, not a working set (B.1 lets entries go at will), so
// memory follows the rules installed: a shard starts with no slots and grows
// its slot array toward its fixed capacity as rules arrive, never past it.
//
// Writes cost O(entries changed), never O(capacity): empty slots come off
// a free list, a full shard goes straight to the CLOCK hand, and per-shard
// reverse indexes (flow source → rules, next hop or dependency → rules),
// linked through the slots by slot number, let InvalidateSource,
// InvalidateDest and CollectDest visit only matching rules.
//
// The cache owns its next hops. Add keeps none of the caller's Forward
// slice: every rule forwarding to one address alone shares one slice per
// shard, named by that address's next-hop index head and dropped with it,
// so only the first rule to an address allocates; a larger set is copied.
//
// The cache owns its header rewrites too. Add copies RewriteHeader into
// bytes that stay with the slot — through invalidation and eviction — and
// serve the slot's next rule, so a warm cache installs a rewrite without
// allocating. A lookup hit that returns a rewrite pins those bytes until
// Action.Release: Add never writes pinned bytes, it gives the slot fresh
// ones instead, so a reader never sees its rewrite change, and a pin that
// is never released costs an allocation, never a corruption.
package cache

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Action is the cached forwarding decision for a flow.
type Action struct {
	// Forward lists next-hop destinations; the pipe-terminus sends a copy
	// of the packet to each ("the decision can specify multiple forwarding
	// destinations", §4). Add copies it and keeps none of the caller's
	// slice; the one a lookup returns is the cache's, shared between rules,
	// and must not be written.
	Forward []wire.Addr
	// Drop discards the packet (used by e.g. DDoS protection). Drop takes
	// precedence over Forward.
	Drop bool
	// RewriteHeader, if non-empty, replaces the encoded ILP header on
	// forwarded copies (services may rewrite per-hop metadata). Add copies
	// it and keeps none of the caller's slice. The one a lookup returns is
	// the cache's, pinned until Release, and must not be written.
	RewriteHeader []byte
	// DependsOn, if valid, is the one address this decision was resolved
	// for and does not forward to — the destination host of a rule whose
	// next hop is that host's SN. InvalidateDest(DependsOn) removes the
	// rule just as InvalidateDest of a next hop does, so a republished host
	// record re-decides the flows the old one steered. Lookup does not
	// report it.
	DependsOn wire.Addr

	// pin is the rewrite a lookup pinned for RewriteHeader, until Release.
	pin *rewrite
}

// Release ends the pin a lookup hit took on a.RewriteHeader, after which the
// cache may write those bytes again: a caller that looked a rule up calls it
// once it has sent (or copied) the rewrite. It is a no-op on an Action that
// holds no pin, and a second call is one too.
func (a *Action) Release() {
	if a.pin != nil {
		a.pin.pins.Add(-1)
		a.pin = nil
	}
}

// rewrite is the header rewrite a slot owns: b is reused for each rule the
// slot holds, empty when the rule has none, and written only while no
// lookup has it pinned.
type rewrite struct {
	b    []byte
	pins atomic.Int32
}

// held is an Action as a slot keeps it: all but DependsOn, which would grow
// every slot by a sixth and is kept in the rule's index node instead.
// forward is the cache's own (linkDests), and so is rewrite (setRewrite).
type held struct {
	forward []wire.Addr
	rewrite *rewrite
	drop    bool
}

// action returns the Action h holds, depending on dep, without a pin.
func (h *held) action(dep wire.Addr) Action {
	a := Action{Forward: h.forward, Drop: h.drop, DependsOn: dep}
	if rw := h.rewrite; rw != nil && len(rw.b) > 0 {
		a.RewriteHeader = rw.b[:len(rw.b):len(rw.b)]
	}
	return a
}

// setRewrite makes b the rewrite h holds, copied into the bytes its slot
// owns unless a lookup has them pinned: then the slot gets fresh ones, and
// the reader keeps the old. An empty b leaves the slot its bytes, so that
// the slot's next rewrite reuses them.
func (h *held) setRewrite(b []byte) {
	rw := h.rewrite
	if len(b) == 0 {
		if rw != nil {
			rw.b = rw.b[:0] // the bytes are left as they are: a pin may read them
		}
		return
	}
	if rw == nil || rw.pins.Load() != 0 {
		rw = new(rewrite)
		h.rewrite = rw
	}
	rw.b = append(rw.b[:0], b...)
}

// The two reverse indexes, then the third way to invalidate a rule; they
// index entry.links, shard.heads and shard.inval.
const (
	bySrc = iota // rules whose flow source is the address
	byDst        // rules that forward to the address or depend on it
	byKey
)

// none ends a list of node ids.
const none = int32(-1)

// link is a node of a doubly linked index list.
type link struct{ next, prev int32 }

// head is the entry of an address in an index: the first node of its list
// and, in byDst, where the forward set {address} is in shard.ones, once a
// rule forwarding to the address alone has asked for it (oneHop), or none.
// Both are int32s so that a map slot is no larger than one holding the node
// id alone: a head is kept per destination, which on a fleet SN is per host.
type head struct {
	first, one int32
}

type entry struct {
	key      wire.FlowKey
	action   held
	hits     uint64
	lastUsed int64 // UnixNano
	// links[bySrc] joins the rules with this key.Src (and, in an empty
	// slot, the free list); links[byDst] those forwarding to Forward[0].
	links [2]link
	more  int32 // first fanout node of the rule, or none
	ref   bool  // CLOCK reference bit
}

// fanout is the byDst node for a further address of a rule: a second or
// later distinct next hop, or the address the rule depends on. The nodes
// live outside the slots, in a slice that grows only when such rules are
// installed; node ids from the shard's capacity up name fanout nodes,
// smaller ids are slots, so a growing slot array never renumbers a node.
type fanout struct {
	link
	addr wire.Addr
	slot int32
	sib  int32 // next node of the same rule, or next free node
	dep  bool  // addr is the rule's DependsOn, not a next hop
}

// shard is one independently locked CLOCK cache.
type shard struct {
	mu       sync.Mutex
	capacity int32 // fixed; slots grows to it and no further
	index    map[wire.FlowKey]int32
	slots    []entry
	hand     int32
	free     int32                 // slots an invalidation emptied, joined by links[bySrc].next
	heads    [2]map[wire.Addr]head // per index: address → its list
	fan      []fanout
	fanFree  int32
	ones     []*[1]wire.Addr // one-hop forward sets, named by head.one; nil when free
	onesFree []int32         // the free places in ones
	now      func() time.Time
	hits     uint64
	misses   uint64
	evicts   uint64
	inserts  uint64
	inval    [3]uint64 // rules invalidated, per cause; an eviction is none
	examined uint64    // CLOCK steps and index nodes visited; read by tests only
	enabled  bool
}

// minShardCapacity is the smallest per-shard slot count auto-striping will
// produce; small caches stay single-shard so their eviction behavior (and
// the tests pinning it) is unchanged.
const minShardCapacity = 1024

// Cache is a decision cache of bounded capacity striped over power-of-two
// many CLOCK shards; its memory follows the rules it holds. It is safe for
// concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64
	// srcAffine selects shards by wire.RxShard from the flow source to
	// local, the receive shard a transport queues that source's datagrams
	// on, so each RX worker exclusively owns one shard (NewSourceAffine).
	srcAffine bool
	local     wire.Addr
}

// New creates a cache with the given total capacity (entries) and an
// automatic shard count: the largest power of two ≤ GOMAXPROCS that keeps
// every shard at or above minShardCapacity. Capacity must be positive.
func New(capacity int) *Cache {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	for n > 1 && capacity/n < minShardCapacity {
		n >>= 1
	}
	return NewSharded(capacity, n)
}

// NewSharded creates a cache with an explicit shard count (rounded up to a
// power of two, clamped so every shard holds at least one entry). Capacity
// is the total across shards and must be positive.
func NewSharded(capacity, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > capacity && n > 1 {
		n >>= 1
	}
	return newCache(capacity, n, false)
}

// NewSourceAffine creates a cache for the node at local with exactly
// `workers` shards, selected by the flow's source address via
// wire.RxShard(src, local, workers) — the function the transports use to
// queue a datagram from src to local on one of the node's RX workers. With
// one cache shard per RX worker, every fast-path lookup lands on the shard
// its worker exclusively owns: the shard's lock and CLOCK state stay in
// that worker's cache hierarchy instead of bouncing between cores. The
// shard count is not rounded to a power of two because it must equal the
// worker count exactly for the affinity to hold.
func NewSourceAffine(capacity, workers int, local wire.Addr) *Cache {
	if workers < 1 {
		workers = 1
	}
	if workers > capacity {
		workers = capacity
	}
	c := newCache(capacity, workers, true)
	c.local = local
	return c
}

func newCache(capacity, n int, srcAffine bool) *Cache {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1), srcAffine: srcAffine}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sz := base
		if i < rem {
			sz++
		}
		c.shards[i] = &shard{
			capacity: int32(sz),
			index:    make(map[wire.FlowKey]int32),
			free:     none,
			heads:    [2]map[wire.Addr]head{{}, {}},
			fanFree:  none,
			now:      time.Now,
			enabled:  true,
		}
	}
	return c
}

// ShardCount returns the number of independent CLOCK shards.
func (c *Cache) ShardCount() int { return len(c.shards) }

// hashKey mixes the full flow key with FNV-1a; the low bits select the
// shard. Allocation-free (Addr.As16 returns a value array).
func hashKey(k wire.FlowKey) uint64 {
	const prime = uint64(1099511628211)
	h := uint64(14695981039346656037)
	a := k.Src.As16()
	for _, b := range a {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ uint64(k.Service)) * prime
	h = (h ^ uint64(k.Conn)) * prime
	return h
}

func (c *Cache) shardFor(key wire.FlowKey) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	if c.srcAffine {
		return c.shards[wire.RxShard(key.Src, c.local, len(c.shards))]
	}
	return c.shards[hashKey(key)&c.mask]
}

// SetNowFunc overrides the time source (tests).
func (c *Cache) SetNowFunc(f func() time.Time) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.now = f
		s.mu.Unlock()
	}
}

// SetEnabled turns the cache on or off. When disabled, Lookup always
// misses; used by the ablation benchmarks.
func (c *Cache) SetEnabled(on bool) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.enabled = on
		s.mu.Unlock()
	}
}

// Lookup returns the cached action for key, if any, recording a hit or
// miss and marking the entry recently used.
func (c *Cache) Lookup(key wire.FlowKey) (Action, bool) {
	return c.LookupN(key, 1)
}

// LookupN is Lookup for a run of n same-key packets: the batched fast
// path coalesces decision-cache traffic per (src, SPI) run, so one lock
// acquisition accounts the whole run. Hit counters advance by n (Appendix
// B.2 services read hit counts to detect live connections, so a
// run-coalesced hit must be indistinguishable from n sequential hits);
// a miss records n misses.
func (c *Cache) LookupN(key wire.FlowKey, n uint64) (Action, bool) {
	action, _, ok := c.LookupStamped(key, n)
	return action, ok
}

// LookupStamped is LookupN that also returns the clock reading a hit was
// stamped with (the entry's new last-used time): the pipe-terminus times
// its service interval from it instead of reading the clock a second time.
func (c *Cache) LookupStamped(key wire.FlowKey, n uint64) (Action, time.Time, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.enabled {
		s.misses += n
		return Action{}, time.Time{}, false
	}
	i, ok := s.index[key]
	if !ok {
		s.misses += n
		return Action{}, time.Time{}, false
	}
	e := &s.slots[i]
	e.hits += n
	e.ref = true
	now := s.now()
	e.lastUsed = now.UnixNano()
	s.hits += n
	a := e.action.action(wire.Addr{})
	if a.RewriteHeader != nil {
		a.pin = e.action.rewrite
		a.pin.pins.Add(1)
	}
	return a, now, true
}

// Add installs (or replaces) the action for key, evicting via CLOCK within
// the key's shard if that shard is full. It keeps copies of action.Forward
// and action.RewriteHeader, never the caller's slices.
func (c *Cache) Add(key wire.FlowKey, action Action) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inserts++
	if i, ok := s.index[key]; ok {
		e := &s.slots[i]
		if !slices.Equal(e.action.forward, action.Forward) || s.dependsOn(i) != action.DependsOn {
			s.unlinkDests(i)
			s.linkDests(i, action.Forward, action.DependsOn)
		}
		e.action.setRewrite(action.RewriteHeader)
		e.action.drop = action.Drop
		e.ref = true
		e.lastUsed = s.now().UnixNano()
		return
	}
	i := s.takeSlot()
	// New entries start with the reference bit clear: only an actual
	// Lookup grants a second chance, so one-shot flows evict first. The
	// slot keeps its rewrite bytes.
	s.slots[i] = entry{
		key:      key,
		action:   held{rewrite: s.slots[i].action.rewrite, drop: action.Drop},
		lastUsed: s.now().UnixNano(),
	}
	s.slots[i].action.setRewrite(action.RewriteHeader)
	s.index[key] = i
	s.push(bySrc, key.Src, i)
	s.linkDests(i, action.Forward, action.DependsOn)
}

// takeSlot returns an empty slot: one an invalidation freed, else a new one
// at the end of a shard not yet at capacity, else — the shard is full — the
// CLOCK (second-chance) victim, whose rule it removes. It never searches for
// a free slot. Must be called with s.mu held, like every shard method below.
func (s *shard) takeSlot() int32 {
	if i := s.free; i != none {
		s.free = s.slots[i].links[bySrc].next
		return i
	}
	if n := len(s.slots); n < int(s.capacity) {
		if n == cap(s.slots) {
			s.grow()
		}
		s.slots = s.slots[:n+1]
		return int32(n)
	}
	for {
		i := s.hand
		s.hand = (s.hand + 1) % int32(len(s.slots))
		s.examined++
		if e := &s.slots[i]; e.ref {
			e.ref = false
			continue
		}
		s.evicts++
		s.remove(i)
		return i
	}
}

// grow reallocates the slot array as append would, but never past the
// shard's capacity, so a full shard holds exactly capacity slots.
func (s *shard) grow() {
	n := len(s.slots)
	c := 2 * n
	if n >= 256 {
		c = n + (n+3*256)/4
	}
	grown := make([]entry, n, min(max(c, 8), int(s.capacity)))
	copy(grown, s.slots)
	s.slots = grown
}

// remove takes the rule in slot i out of the table and both indexes; the
// caller overwrites the slot, all but its rewrite bytes.
func (s *shard) remove(i int32) {
	e := &s.slots[i]
	delete(s.index, e.key)
	s.unlink(bySrc, e.key.Src, i)
	s.unlinkDests(i)
}

// invalidate removes the rule in slot i and puts the slot, cleared but for
// its rewrite bytes, on the free list.
func (s *shard) invalidate(i int32, cause int) {
	s.remove(i)
	s.slots[i] = entry{action: held{rewrite: s.slots[i].action.rewrite}, links: [2]link{bySrc: {next: s.free}}}
	s.free = i
	s.inval[cause]++
}

// invalidateList removes every rule on a's list in index ix. A rule has one
// node per distinct address, so removing it leaves the rest of a's list be.
func (s *shard) invalidateList(ix int, a wire.Addr) {
	for id := s.head(ix, a); id != none; {
		next := s.link(ix, id).next
		s.examined++
		s.invalidate(s.slotOf(id), ix)
		id = next
	}
}

func (s *shard) fanNode(id int32) *fanout { return &s.fan[id-s.capacity] }

// link returns node id's links in index ix.
func (s *shard) link(ix int, id int32) *link {
	if id >= s.capacity {
		return &s.fanNode(id).link
	}
	return &s.slots[id].links[ix]
}

// slotOf returns the slot of the rule that node id indexes.
func (s *shard) slotOf(id int32) int32 {
	if id >= s.capacity {
		return s.fanNode(id).slot
	}
	return id
}

func (s *shard) head(ix int, a wire.Addr) int32 {
	if h, ok := s.heads[ix][a]; ok {
		return h.first
	}
	return none
}

// push adds node id to a's list in index ix — behind the head, so only the
// first rule for an address writes the head map.
func (s *shard) push(ix int, a wire.Addr, id int32) {
	h := s.head(ix, a)
	if h == none {
		*s.link(ix, id) = link{none, none}
		s.heads[ix][a] = head{first: id, one: none}
		return
	}
	hl := s.link(ix, h)
	*s.link(ix, id) = link{hl.next, h}
	if hl.next != none {
		s.link(ix, hl.next).prev = id
	}
	hl.next = id
}

// unlink takes node id off a's list in index ix.
func (s *shard) unlink(ix int, a wire.Addr, id int32) {
	l := *s.link(ix, id)
	if l.next != none {
		s.link(ix, l.next).prev = l.prev
	}
	switch {
	case l.prev != none:
		s.link(ix, l.prev).next = l.next
	case l.next != none:
		h := s.heads[ix][a]
		h.first = l.next
		s.heads[ix][a] = h
	default:
		if h := s.heads[ix][a]; ix == byDst && h.one != none {
			s.ones[h.one] = nil
			s.onesFree = append(s.onesFree, h.one)
		}
		delete(s.heads[ix], a)
	}
}

// oneHop returns the forward set {a} that every rule of the shard forwarding
// to a alone shares. a's byDst head must exist and names it: the first such
// rule allocates it, and it goes with the head, when the last rule indexed
// under a does. A lookup may still hold it then, so a set is never written
// and its place in ones takes a new one.
func (s *shard) oneHop(a wire.Addr) []wire.Addr {
	h := s.heads[byDst][a]
	if h.one == none {
		set := &[1]wire.Addr{a}
		if n := len(s.onesFree); n > 0 {
			h.one, s.onesFree = s.onesFree[n-1], s.onesFree[:n-1]
			s.ones[h.one] = set
		} else {
			h.one = int32(len(s.ones))
			s.ones = append(s.ones, set)
		}
		s.heads[byDst][a] = h
	}
	return s.ones[h.one][:]
}

// linkDests gives slot i the cache's own copy of fwd (oneHop's shared slice
// for one address, a fresh copy of more) and indexes the slot under every
// distinct address of fwd — fwd[0] through the slot's own link, the rest
// through fanout nodes — and under dep, if the rule depends on an address
// it does not forward to.
func (s *shard) linkDests(i int32, fwd []wire.Addr, dep wire.Addr) {
	s.slots[i].more = none
	for j, a := range fwd {
		if j == 0 {
			s.push(byDst, a, i)
		} else if !slices.Contains(fwd[:j], a) {
			s.linkFanout(i, a, false)
		}
	}
	switch len(fwd) {
	case 0:
		s.slots[i].action.forward = nil
	case 1:
		s.slots[i].action.forward = s.oneHop(fwd[0])
	default:
		s.slots[i].action.forward = slices.Clone(fwd)
	}
	if dep.IsValid() && !slices.Contains(fwd, dep) {
		s.linkFanout(i, dep, true)
	}
}

// linkFanout indexes slot i under a through a fanout node.
func (s *shard) linkFanout(i int32, a wire.Addr, dep bool) {
	id := s.fanFree
	if id == none {
		s.fan = append(s.fan, fanout{})
		id = s.capacity + int32(len(s.fan)-1)
	} else {
		s.fanFree = s.fanNode(id).sib
	}
	*s.fanNode(id) = fanout{addr: a, slot: i, sib: s.slots[i].more, dep: dep}
	s.slots[i].more = id
	s.push(byDst, a, id)
}

// dependsOn returns the DependsOn the rule in slot i is indexed under.
func (s *shard) dependsOn(i int32) wire.Addr {
	for id := s.slots[i].more; id != none; id = s.fanNode(id).sib {
		if f := s.fanNode(id); f.dep {
			return f.addr
		}
	}
	return wire.Addr{}
}

// unlinkDests undoes linkDests.
func (s *shard) unlinkDests(i int32) {
	e := &s.slots[i]
	if len(e.action.forward) > 0 {
		s.unlink(byDst, e.action.forward[0], i)
	}
	for id := e.more; id != none; {
		f := s.fanNode(id)
		s.unlink(byDst, f.addr, id)
		next := f.sib
		f.sib, s.fanFree = s.fanFree, id
		id = next
	}
}

// Invalidate removes the entry for key, if present.
func (c *Cache) Invalidate(key wire.FlowKey) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[key]; ok {
		s.invalidate(i, byKey)
	}
}

// InvalidateSource removes all entries whose flow source is src (used when
// a pipe to a peer is torn down). It visits only those entries, and only
// the source's own shard when the cache is source-affine.
func (c *Cache) InvalidateSource(src wire.Addr) {
	shards := c.shards
	if c.srcAffine {
		i := wire.RxShard(src, c.local, len(shards))
		shards = shards[i : i+1]
	}
	for _, s := range shards {
		s.mu.Lock()
		s.invalidateList(bySrc, src)
		s.mu.Unlock()
	}
}

// InvalidateDest removes all entries whose cached action forwards to dst
// or depends on it (used when the pipe to a next hop dies — the stale route
// must fall back to the slow path so the module can re-decide it once the
// pipe, with fresh keys and epochs, is re-established — and when dst's
// lookup record changes). It visits only those entries.
func (c *Cache) InvalidateDest(dst wire.Addr) {
	for _, s := range c.shards {
		s.mu.Lock()
		s.invalidateList(byDst, dst)
		s.mu.Unlock()
	}
}

// CollectDest returns up to max flow keys whose cached action forwards to
// dst — the cache-warmth hints a draining SN ships to its successor so the
// moved host's flows keep hitting instead of each taking a cold miss.
// Entries most recently used come first within each shard; max <= 0 means
// no limit. The result is per-shard consistent, not one cut.
func (c *Cache) CollectDest(dst wire.Addr, max int) []wire.FlowKey {
	var out []wire.FlowKey
	var found []int32
	for _, s := range c.shards {
		s.mu.Lock()
		found = found[:0]
		for id := s.head(byDst, dst); id != none; id = s.link(byDst, id).next {
			s.examined++
			// A rule that only depends on dst does not forward to it.
			if id < s.capacity || !s.fanNode(id).dep {
				found = append(found, s.slotOf(id))
			}
		}
		slices.SortFunc(found, func(a, b int32) int {
			return cmp.Compare(s.slots[b].lastUsed, s.slots[a].lastUsed)
		})
		if max > 0 && len(found) > max-len(out) {
			found = found[:max-len(out)]
		}
		for _, i := range found {
			out = append(out, s.slots[i].key)
		}
		s.mu.Unlock()
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// HitCount returns the entry's hit counter — the Appendix B.2 API
// ("retrieving the hit-count for an entry") services use to learn whether
// a connection is still active.
func (c *Cache) HitCount(key wire.FlowKey) (uint64, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		return 0, false
	}
	return s.slots[i].hits, true
}

// RecentlyUsed reports whether the entry was hit within the given window.
func (c *Cache) RecentlyUsed(key wire.FlowKey, window time.Duration) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		return false
	}
	return s.now().UnixNano()-s.slots[i].lastUsed <= int64(window)
}

// RegisterTelemetry implements telemetry.Registrable. The cache keeps its
// counters as cheap per-shard fields under the shard locks (registry
// atomics would put contended cache lines back on the lookup path that
// striping exists to avoid), so the instruments are lazy: each snapshot
// read sums its own field over the shards, each under its shard's lock, so
// the total is per-shard consistent, not one cut across shards.
func (c *Cache) RegisterTelemetry(r *telemetry.Registry) {
	sum := func(field func(s *shard) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, s := range c.shards {
				s.mu.Lock()
				n += field(s)
				s.mu.Unlock()
			}
			return n
		}
	}
	invalidated := func(cause string, ix int) telemetry.Instrument {
		return telemetry.NewCounterFunc(telemetry.Name("cache_invalidated_total", "cause", cause),
			sum(func(s *shard) uint64 { return s.inval[ix] }))
	}
	_ = r.Register(
		invalidated("source", bySrc),
		invalidated("dest", byDst),
		invalidated("key", byKey),
		telemetry.NewCounterFunc("cache_hits_total", sum(func(s *shard) uint64 { return s.hits })),
		telemetry.NewCounterFunc("cache_misses_total", sum(func(s *shard) uint64 { return s.misses })),
		telemetry.NewCounterFunc("cache_evictions_total", sum(func(s *shard) uint64 { return s.evicts })),
		telemetry.NewCounterFunc("cache_inserts_total", sum(func(s *shard) uint64 { return s.inserts })),
		telemetry.NewGaugeFunc("cache_entries", func() int64 { return int64(c.Len()) }),
		// Shard capacities are fixed at construction: no lock to read them.
		telemetry.NewGaugeFunc("cache_capacity", func() int64 {
			n := int64(0)
			for _, s := range c.shards {
				n += int64(s.capacity)
			}
			return n
		}),
	)
}

// Len returns the number of live entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}
