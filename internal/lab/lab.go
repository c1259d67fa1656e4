// Package lab assembles complete InterEdge deployments in-process: a
// network substrate, a global lookup service, a peering fabric, edomains
// with their cores and SNs, and InterEdge-enabled hosts. Integration
// tests, the examples, and cmd/interedge-lab all build their topologies
// here — the executable equivalent of the paper's Figure 1.
package lab

import (
	"crypto/ed25519"
	"fmt"

	"interedge/internal/clock"
	"interedge/internal/edomain"
	"interedge/internal/handshake"
	"interedge/internal/host"
	"interedge/internal/lookup"
	"interedge/internal/lookup/rescache"
	"interedge/internal/netsim"
	"interedge/internal/peering"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Edomain bundles one edomain's core and service nodes.
type Edomain struct {
	ID   edomain.ID
	Core *edomain.Core
	SNs  []*sn.SN
}

// Gateway returns the edomain's first SN, which the fabric designates as
// a gateway.
func (e *Edomain) Gateway() *sn.SN { return e.SNs[0] }

// Topology is a complete in-process InterEdge deployment.
type Topology struct {
	Net    *netsim.Network
	Global *lookup.Service
	Fabric *peering.Fabric
	Clock  clock.Clock

	alloc    *netsim.AddrAllocator
	edomains map[edomain.ID]*Edomain
	hosts    []*host.Host
	closers  []func() error
	snEdits  []func(*sn.Config)
	trWrap   func(netsim.Transport) netsim.Transport
}

// Option configures a Topology.
type Option func(*Topology)

// WithNetwork substitutes a pre-configured substrate (e.g. with latency
// profiles or a manual clock).
func WithNetwork(n *netsim.Network) Option {
	return func(t *Topology) { t.Net = n }
}

// WithClock sets the clock handed to SNs and hosts.
func WithClock(c clock.Clock) Option {
	return func(t *Topology) { t.Clock = c }
}

// WithSNConfig applies a config edit to every SN the topology creates
// (including those built by AddEdomain). The chaos suite uses it to turn
// on pipe keepalives and tune handshake retry behavior fleet-wide.
func WithSNConfig(edit func(*sn.Config)) Option {
	return func(t *Topology) { t.snEdits = append(t.snEdits, edit) }
}

// WithTransportWrap interposes wrap on every transport the topology
// attaches (SNs and hosts alike). The soak runner uses it to install a
// capture tap that records sealed wire traffic for fuzz-corpus seeding.
// Wrappers should forward netsim.BatchSender and telemetry.Registrable
// when the underlying transport implements them.
func WithTransportWrap(wrap func(netsim.Transport) netsim.Transport) Option {
	return func(t *Topology) { t.trWrap = wrap }
}

// New creates an empty topology.
func New(opts ...Option) *Topology {
	t := &Topology{
		Fabric:   peering.NewFabric(),
		Clock:    clock.Real{},
		alloc:    netsim.NewAddrAllocator(),
		edomains: make(map[edomain.ID]*Edomain),
	}
	for _, o := range opts {
		o(t)
	}
	// The lookup service shares the topology clock so lease expiry and
	// watch-lag measurements stay meaningful under a manual clock.
	t.Global = lookup.New(lookup.WithClock(t.Clock))
	if t.Net == nil {
		t.Net = netsim.NewNetwork()
	}
	t.Fabric.OnRouteChange(t.dropSNRoutes)
	return t
}

// dropSNRoutes invalidates, on every SN, every cached decision that forwards
// to another SN. Those next hops came from the fabric's routes (directly, or
// through a transit header built for them), so a route publish — a new
// gateway pair, a direct-connect flip — must send their flows back to the
// modules. Like AddEdomain, not safe beside a concurrent AddEdomain.
func (t *Topology) dropSNRoutes() {
	var sns []*sn.SN
	for _, ed := range t.edomains {
		sns = append(sns, ed.SNs...)
	}
	for _, node := range sns {
		for _, hop := range sns {
			node.Cache().InvalidateDest(hop.Addr())
		}
	}
}

// SNSetup customizes one SN at creation: register service modules, tweak
// options. ed.Core and the topology's Global/Fabric are available.
type SNSetup func(node *sn.SN, ed *Edomain) error

// NewSN creates one service node attached to the substrate.
func (t *Topology) NewSN(cfgEdit ...func(*sn.Config)) (*sn.SN, error) {
	addr := t.alloc.Next()
	tr, err := t.Net.Attach(addr)
	if err != nil {
		return nil, err
	}
	if t.trWrap != nil {
		tr = t.trWrap(tr)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		return nil, err
	}
	cfg := sn.Config{Transport: tr, Identity: id, Clock: t.Clock}
	for _, e := range t.snEdits {
		e(&cfg)
	}
	for _, e := range cfgEdit {
		e(&cfg)
	}
	node, err := sn.New(cfg)
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, node.Close)
	return node, nil
}

// AddEdomain creates an edomain with numSNs service nodes. The first SN is
// the gateway. Every SN runs the peering forwarder (its pipe-terminus unwraps
// transit addressed to it without one); setup (optional) registers additional
// service modules per SN.
func (t *Topology) AddEdomain(id edomain.ID, numSNs int, setup SNSetup) (*Edomain, error) {
	if _, dup := t.edomains[id]; dup {
		return nil, fmt.Errorf("lab: edomain %s already exists", id)
	}
	if numSNs < 1 {
		return nil, fmt.Errorf("lab: edomain needs at least one SN")
	}
	ed := &Edomain{ID: id, Core: edomain.New(id, t.Global)}
	// Build the edomain-tier resolution cache up front so SN-tier caches
	// created later (NewNodeResolver) chain through it.
	ed.Core.NewResolver(rescache.Config{Clock: t.Clock})
	t.closers = append(t.closers, func() error { ed.Core.Close(); return nil })
	core := ed.Core
	for i := 0; i < numSNs; i++ {
		node, err := t.NewSN(func(c *sn.Config) {
			// Pipe handoffs are only accepted from sibling SNs of this
			// edomain, and a sibling found dead by pipe keepalives is
			// reported to the core as an unannounced ring change.
			c.AcceptHandoff = core.HasSN
			prev := c.OnPeerDown
			c.OnPeerDown = func(addr wire.Addr, identity ed25519.PublicKey) {
				if core.HasSN(addr) {
					core.ReportSNDown(addr)
				}
				if prev != nil {
					prev(addr, identity)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if err := node.Register(peering.NewForwarder(t.Fabric, node.Telemetry())); err != nil {
			return nil, err
		}
		ed.Core.RegisterSN(node.Addr())
		ed.SNs = append(ed.SNs, node)
	}
	if err := t.Fabric.AddEdomain(id, ed.SNs[0].Addr()); err != nil {
		return nil, err
	}
	for _, node := range ed.SNs[1:] {
		if err := t.Fabric.RegisterAddr(id, node.Addr()); err != nil {
			return nil, err
		}
	}
	if setup != nil {
		for _, node := range ed.SNs {
			if err := setup(node, ed); err != nil {
				return nil, err
			}
		}
	}
	t.edomains[id] = ed
	return ed, nil
}

// NewNodeResolver builds the SN-tier resolution cache for one node: the
// bottom tier of the resolution cache hierarchy. Fills chain through the
// edomain-tier cache (or straight to the global service when the edomain
// has none), while invalidation events come from watching the global
// service directly so updates apply in publish order. A record change or
// revocation also invalidates the node's decision-cache rules that
// forward toward that address, so the fast path cannot keep steering a
// flow at a stale first-hop SN. The cache's instruments register into
// the node's telemetry registry (visible through the control-plane
// "metrics" op) and the topology closes the cache on Close.
func (t *Topology) NewNodeResolver(ed *Edomain, node *sn.SN) *rescache.Cache {
	var backend rescache.Resolver = t.Global
	if r := ed.Core.Resolver(); r != nil {
		backend = r
	}
	rc := rescache.New(rescache.Config{
		Backend: backend,
		Watch:   t.Global,
		Clock:   t.Clock,
		OnEvent: func(ev lookup.AddrEvent) {
			if !ev.Resync {
				node.Cache().InvalidateDest(ev.Addr)
			}
		},
	})
	rc.RegisterTelemetry(node.Telemetry())
	t.closers = append(t.closers, func() error { rc.Close(); return nil })
	return rc
}

// Edomain returns a previously created edomain.
func (t *Topology) Edomain(id edomain.ID) (*Edomain, bool) {
	ed, ok := t.edomains[id]
	return ed, ok
}

// Mesh establishes the required full mesh of inter-edomain gateway pipes
// plus full pipe connectivity among SNs within each edomain.
func (t *Topology) Mesh() error {
	if err := t.Fabric.EstablishMesh(func(a, b wire.Addr) error {
		node, err := t.snByAddr(a)
		if err != nil {
			return err
		}
		return node.Connect(b)
	}); err != nil {
		return err
	}
	for _, ed := range t.edomains {
		for i := 0; i < len(ed.SNs); i++ {
			for j := i + 1; j < len(ed.SNs); j++ {
				if err := ed.SNs[i].Connect(ed.SNs[j].Addr()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (t *Topology) snByAddr(addr wire.Addr) (*sn.SN, error) {
	for _, ed := range t.edomains {
		for _, node := range ed.SNs {
			if node.Addr() == addr {
				return node, nil
			}
		}
	}
	return nil, fmt.Errorf("lab: no SN at %s", addr)
}

// NewHost creates an InterEdge host in the given edomain, associated with
// the edomain's SN at snIdx, registers it in the peering fabric, and
// publishes its signed address record (address → owner key + first-hop
// SNs) in the global lookup service.
func (t *Topology) NewHost(ed *Edomain, snIdx int, cfgEdit ...func(*host.Config)) (*host.Host, error) {
	if snIdx < 0 || snIdx >= len(ed.SNs) {
		return nil, fmt.Errorf("lab: SN index %d out of range", snIdx)
	}
	addr := t.alloc.Next()
	tr, err := t.Net.Attach(addr)
	if err != nil {
		return nil, err
	}
	if t.trWrap != nil {
		tr = t.trWrap(tr)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		return nil, err
	}
	cfg := host.Config{Transport: tr, Identity: id, Clock: t.Clock}
	for _, e := range cfgEdit {
		e(&cfg)
	}
	h, err := host.New(cfg)
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, h.Close)
	firstHop := ed.SNs[snIdx].Addr()
	if err := h.Associate(firstHop); err != nil {
		return nil, fmt.Errorf("lab: associate host %s: %w", addr, err)
	}
	if err := t.Fabric.RegisterAddr(ed.ID, addr); err != nil {
		return nil, err
	}
	rec := lookup.AddrRecord{Addr: addr, Owner: id.PublicKey(), SNs: []wire.Addr{firstHop}}
	sig := lookup.SignAddrRecord(id.Signing, addr, rec.SNs)
	if err := t.Global.RegisterAddress(rec, sig); err != nil {
		return nil, fmt.Errorf("lab: register host address: %w", err)
	}
	t.hosts = append(t.hosts, h)
	return h, nil
}

// NewHostAt creates a host at a specific address, outside any edomain
// bookkeeping. The caller associates it with SNs manually. Useful when a
// test needs recognizable source prefixes (e.g. QoS classes).
func (t *Topology) NewHostAt(addr string, cfgEdit ...func(*host.Config)) (*host.Host, error) {
	a := wire.MustAddr(addr)
	tr, err := t.Net.Attach(a)
	if err != nil {
		return nil, err
	}
	if t.trWrap != nil {
		tr = t.trWrap(tr)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		return nil, err
	}
	cfg := host.Config{Transport: tr, Identity: id, Clock: t.Clock}
	for _, e := range cfgEdit {
		e(&cfg)
	}
	h, err := host.New(cfg)
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, h.Close)
	t.hosts = append(t.hosts, h)
	return h, nil
}

// MoveHost re-registers a host's address record after it associates with a
// different SN (used by mobility scenarios).
func (t *Topology) MoveHost(h *host.Host, ed *Edomain, snIdx int) error {
	newSN := ed.SNs[snIdx].Addr()
	if err := h.Associate(newSN); err != nil {
		return err
	}
	sns := []wire.Addr{newSN}
	rec := lookup.AddrRecord{Addr: h.Addr(), Owner: h.Identity().PublicKey(), SNs: sns}
	sig := lookup.SignAddrRecord(h.Identity().Signing, h.Addr(), sns)
	return t.Global.RegisterAddress(rec, sig)
}

// Close tears down every node created by the topology.
func (t *Topology) Close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		_ = t.closers[i]()
	}
}
