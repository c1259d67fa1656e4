// Package peering implements inter-edomain connectivity (§3.2): every
// edomain peers directly with every other edomain over a long-lived ILP
// pipe between designated gateway SNs, each SN knows which local SN
// reaches each foreign edomain, and — per §5 — all of this is
// settlement-free: the ledger records traffic between edomains and the
// invariant that no money changes hands.
//
// Transit packets are encapsulated under the SvcPeering service ID: the
// outer ILP header's service data carries the final destination SN, the
// original source and the whole inner ILP header (wire.TransitHeader); the
// payload is the inner payload. Every SN on the way caches its decision —
// the ingress SN a header rewrite (TransitDecision), gateways a next hop
// (Forwarder), the destination SN the inner flow's own rule once its
// pipe-terminus has unwrapped the packet — so a cross-edomain flow runs the
// slow path once per SN, not once per packet.
package peering

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"interedge/internal/lookup"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// EdomainID aliases lookup.EdomainID.
type EdomainID = lookup.EdomainID

// Errors returned by the fabric.
var (
	ErrUnknownEdomain = errors.New("peering: address not in any known edomain")
	ErrNoGateway      = errors.New("peering: no gateway pair for edomain pair")
)

type edomainInfo struct {
	id       EdomainID
	gateways []wire.Addr
	sns      map[wire.Addr]struct{}
}

type pairKey struct{ lo, hi EdomainID }

func mkPair(a, b EdomainID) pairKey {
	if a < b {
		return pairKey{a, b}
	}
	return pairKey{b, a}
}

// gatewayPair records the SN on each side of one edomain-pair pipe.
type gatewayPair struct {
	gw map[EdomainID]wire.Addr
}

// TransferRecord is one edomain pair's traffic tally.
type TransferRecord struct {
	From    EdomainID
	To      EdomainID
	Packets uint64
	Bytes   uint64
	// FeesOwed is the money owed for this traffic. Per §5 peering between
	// edomains is settlement-free, so this is always zero; it exists so
	// audits can assert the invariant.
	FeesOwed uint64
}

// routeView is the immutable routing state packet-path reads consult:
// the gateway-pair table plus the direct-connect flag. Topology writes
// republish it atomically (RCU), so NextHop and the gateway lookups are
// lock-free on every SN while registrations serialize behind the write
// mutex — the same snapshot-read contract as the lookup service.
type routeView struct {
	pairs map[pairKey]gatewayPair
	// directConnect enables the §3.2 optimization: SNs may "establish,
	// on demand, a connection directly to the destination's associated
	// SN in another edomain" instead of routing via gateways.
	directConnect bool
}

// Fabric is the global view of edomain peering used by SNs and services.
// In a production deployment each edomain would hold its slice of this
// state; the simulator shares one fabric the way it shares the substrate.
type Fabric struct {
	mu       sync.Mutex // serializes topology writes
	edomains map[EdomainID]*edomainInfo

	// byAddr maps every registered address to its edomain. Written only
	// under mu; probed lock-free by EdomainOf on the packet path.
	byAddr sync.Map // wire.Addr -> EdomainID
	routes atomic.Pointer[routeView]
	// onRoutes run after every route publish. Under mu.
	onRoutes []func()

	// The settlement ledger is write-heavy (one tally per transit
	// packet on the slow path) and shares no state with routing, so it
	// contends on its own lock.
	ledgerMu sync.Mutex
	ledger   map[pairKey]*ledgerEntry
}

type ledgerEntry struct {
	packets map[EdomainID]uint64 // keyed by the sending edomain
	bytes   map[EdomainID]uint64
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	f := &Fabric{
		edomains: make(map[EdomainID]*edomainInfo),
		ledger:   make(map[pairKey]*ledgerEntry),
	}
	f.routes.Store(&routeView{pairs: make(map[pairKey]gatewayPair)})
	return f
}

// OnRouteChange registers fn to run, on the publishing goroutine, after every
// route publish. SNs cache next hops computed from the routes (NextHop), so
// whoever owns the SNs drops those decisions here.
func (f *Fabric) OnRouteChange(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onRoutes = append(f.onRoutes, fn)
}

// publishRoutes clones the current route view, applies mutate, swaps the
// result in, and then tells the OnRouteChange subscribers.
func (f *Fabric) publishRoutes(mutate func(*routeView)) {
	f.mu.Lock()
	old := f.routes.Load()
	next := &routeView{
		pairs:         make(map[pairKey]gatewayPair, len(old.pairs)+1),
		directConnect: old.directConnect,
	}
	for k, v := range old.pairs {
		next.pairs[k] = v
	}
	mutate(next)
	f.routes.Store(next)
	subs := f.onRoutes
	f.mu.Unlock()
	for _, fn := range subs {
		fn()
	}
}

// SetDirectConnect toggles the direct SN-to-SN optimization.
func (f *Fabric) SetDirectConnect(on bool) {
	f.publishRoutes(func(v *routeView) { v.directConnect = on })
}

// DirectConnect reports whether the optimization is enabled. Lock-free.
func (f *Fabric) DirectConnect() bool {
	return f.routes.Load().directConnect
}

// AddEdomain registers an edomain with its gateway SNs (which are also
// registered as member SNs).
func (f *Fabric) AddEdomain(id EdomainID, gateways ...wire.Addr) error {
	if len(gateways) == 0 {
		return fmt.Errorf("peering: edomain %s needs at least one gateway", id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.edomains[id]; ok {
		return fmt.Errorf("peering: edomain %s already registered", id)
	}
	info := &edomainInfo{id: id, gateways: append([]wire.Addr(nil), gateways...), sns: make(map[wire.Addr]struct{})}
	for _, g := range gateways {
		info.sns[g] = struct{}{}
		f.byAddr.Store(g, id)
	}
	f.edomains[id] = info
	return nil
}

// RegisterAddr places an SN or host address inside an edomain (hosts
// "reside in" the edomain of their first-hop SN, §3.1).
func (f *Fabric) RegisterAddr(id EdomainID, addr wire.Addr) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	info, ok := f.edomains[id]
	if !ok {
		return fmt.Errorf("peering: unknown edomain %s", id)
	}
	info.sns[addr] = struct{}{}
	f.byAddr.Store(addr, id)
	return nil
}

// EdomainOf returns the edomain containing addr. Lock-free: it runs for
// every transit packet that reaches a gateway's slow path.
func (f *Fabric) EdomainOf(addr wire.Addr) (EdomainID, bool) {
	v, ok := f.byAddr.Load(addr)
	if !ok {
		return "", false
	}
	return v.(EdomainID), true
}

// Edomains lists registered edomains.
func (f *Fabric) Edomains() []EdomainID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]EdomainID, 0, len(f.edomains))
	for id := range f.edomains {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GatewayOf returns the designated gateway SN of fromEd for traffic toward
// toEd. Lock-free.
func (f *Fabric) GatewayOf(fromEd, toEd EdomainID) (wire.Addr, error) {
	pair, ok := f.routes.Load().pairs[mkPair(fromEd, toEd)]
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s<->%s", ErrNoGateway, fromEd, toEd)
	}
	return pair.gw[fromEd], nil
}

// RemoteGatewayOf returns the gateway SN on toEd's side of the
// fromEd<->toEd pipe — the entry point for traffic fanned into toEd.
// Lock-free.
func (f *Fabric) RemoteGatewayOf(fromEd, toEd EdomainID) (wire.Addr, error) {
	pair, ok := f.routes.Load().pairs[mkPair(fromEd, toEd)]
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s<->%s", ErrNoGateway, fromEd, toEd)
	}
	return pair.gw[toEd], nil
}

// EstablishMesh creates the required full mesh: for every pair of
// edomains, designate one gateway SN on each side and invoke connect to
// bring up the long-lived pipe ("we require that every edomain peers
// directly with all other edomains via an ILP connection", §3.2).
func (f *Fabric) EstablishMesh(connect func(a, b wire.Addr) error) error {
	f.mu.Lock()
	existing := f.routes.Load().pairs
	ids := make([]EdomainID, 0, len(f.edomains))
	for id := range f.edomains {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type job struct {
		key  pairKey
		a, b wire.Addr
	}
	var jobs []job
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			key := mkPair(ids[i], ids[j])
			if _, done := existing[key]; done {
				continue
			}
			// Spread load across gateways deterministically.
			gi := f.edomains[ids[i]]
			gj := f.edomains[ids[j]]
			a := gi.gateways[j%len(gi.gateways)]
			b := gj.gateways[i%len(gj.gateways)]
			jobs = append(jobs, job{key: key, a: a, b: b})
		}
	}
	f.mu.Unlock()

	for _, jb := range jobs {
		if err := connect(jb.a, jb.b); err != nil {
			return fmt.Errorf("peering: connect %s<->%s: %w", jb.a, jb.b, err)
		}
		edA, _ := f.EdomainOf(jb.a)
		edB, _ := f.EdomainOf(jb.b)
		f.publishRoutes(func(v *routeView) {
			v.pairs[jb.key] = gatewayPair{gw: map[EdomainID]wire.Addr{edA: jb.a, edB: jb.b}}
		})
	}
	return nil
}

// MeshComplete reports whether every edomain pair has a gateway pipe.
func (f *Fabric) MeshComplete() bool {
	f.mu.Lock()
	n := len(f.edomains)
	f.mu.Unlock()
	return len(f.routes.Load().pairs) == n*(n-1)/2
}

// NextHop computes where the SN at 'from' should send a transit packet
// bound for finalDst: stay inside the edomain, hop to the local gateway,
// cross the gateway pipe, or complete delivery. Lock-free: one route
// snapshot plus two byAddr probes, so every gateway's slow path decides
// without contending on fleet-shared state.
func (f *Fabric) NextHop(from, finalDst wire.Addr) (wire.Addr, error) {
	edFrom, ok := f.EdomainOf(from)
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s", ErrUnknownEdomain, from)
	}
	edDst, ok := f.EdomainOf(finalDst)
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s", ErrUnknownEdomain, finalDst)
	}
	if edFrom == edDst {
		return finalDst, nil
	}
	routes := f.routes.Load()
	if routes.directConnect {
		// §3.2 optimization: connect straight to the destination SN.
		return finalDst, nil
	}
	pair, ok := routes.pairs[mkPair(edFrom, edDst)]
	if !ok {
		return wire.Addr{}, fmt.Errorf("%w: %s<->%s", ErrNoGateway, edFrom, edDst)
	}
	localGW := pair.gw[edFrom]
	if from != localGW {
		return localGW, nil
	}
	return pair.gw[edDst], nil
}

// RecordTransfer tallies transit traffic crossing between two edomains. The
// Forwarder calls it, so it counts slow-path crossings: the packets of a flow
// that reach a gateway before the flow's rule is cached there.
func (f *Fabric) RecordTransfer(fromEd, toEd EdomainID, bytes int) {
	f.ledgerMu.Lock()
	defer f.ledgerMu.Unlock()
	key := mkPair(fromEd, toEd)
	e, ok := f.ledger[key]
	if !ok {
		e = &ledgerEntry{packets: make(map[EdomainID]uint64), bytes: make(map[EdomainID]uint64)}
		f.ledger[key] = e
	}
	e.packets[fromEd]++
	e.bytes[fromEd] += uint64(bytes)
}

// Ledger reports per-direction transfer records: which edomain pairs
// exchanged traffic, in slow-path crossings (see RecordTransfer), not total
// volume. What it proves is the invariant: FeesOwed is zero on every record,
// because edomain peering is settlement-free by architecture (§5).
func (f *Fabric) Ledger() []TransferRecord {
	f.ledgerMu.Lock()
	defer f.ledgerMu.Unlock()
	var out []TransferRecord
	for key, e := range f.ledger {
		for _, dir := range []struct{ from, to EdomainID }{{key.lo, key.hi}, {key.hi, key.lo}} {
			if e.packets[dir.from] == 0 {
				continue
			}
			out = append(out, TransferRecord{
				From:     dir.from,
				To:       dir.to,
				Packets:  e.packets[dir.from],
				Bytes:    e.bytes[dir.from],
				FeesOwed: 0,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// --- Transit encapsulation ------------------------------------------------

// EncodeTransit returns the SvcPeering service data (wire.TransitHeader) that
// carries inner from origSrc to the SN finalDst, and the payload to send under
// it: innerPayload itself.
func EncodeTransit(finalDst, origSrc wire.Addr, inner *wire.ILPHeader, innerPayload []byte) (svcData, payload []byte, err error) {
	outer, err := wire.TransitHeader(finalDst, origSrc, inner)
	return outer.Data, innerPayload, err
}

// TransitDecision is the verdict of a module at the SN local whose packet pkt
// must reach the SN finalDst in another edomain, carrying the header inner:
// forward it under the transit header toward the next hop, and cache that as
// a header rewrite, so the flow's later packets are wrapped on the fast path.
// The transit header is written into the packet (sn.Packet.RewriteBuf).
func TransitDecision(fabric *Fabric, local, finalDst wire.Addr, pkt *sn.Packet, inner *wire.ILPHeader) (sn.Decision, error) {
	next, err := fabric.NextHop(local, finalDst)
	if err != nil {
		return sn.Decision{}, err
	}
	enc := pkt.RewriteBuf(wire.TransitHeaderSize(inner))
	if err := wire.PutTransitHeader(enc, finalDst, pkt.Src, inner); err != nil {
		return sn.Decision{}, err
	}
	return pkt.Route(next, enc, wire.Addr{}), nil
}

// SendTransit wraps and launches one inner packet from the SN at env toward
// the SN finalDst. It is for fan-out, where one packet leaves under several
// transit headers; a flow with one destination returns a TransitDecision.
func SendTransit(env sn.Env, fabric *Fabric, finalDst, origSrc wire.Addr, inner *wire.ILPHeader, innerPayload []byte) error {
	outer, err := wire.TransitHeader(finalDst, origSrc, inner)
	if err != nil {
		return err
	}
	next, err := fabric.NextHop(env.LocalAddr(), finalDst)
	if err != nil {
		return err
	}
	return env.Send(next, &outer, innerPayload)
}

// --- Forwarder module ------------------------------------------------------

// Forwarder is the SvcPeering service module deployed on every SN: it decides
// the next hop of transit packets passing through. (Packets addressed to the
// SN itself never reach it; the pipe-terminus unwraps those.)
type Forwarder struct {
	fabric       *Fabric
	splitHorizon *telemetry.Counter
}

// NewForwarder creates the peering forwarder for one SN, with its drop
// counter in that SN's registry.
func NewForwarder(fabric *Fabric, reg *telemetry.Registry) *Forwarder {
	return &Forwarder{fabric: fabric, splitHorizon: reg.Counter("peering_split_horizon_drops_total")}
}

// Service implements sn.Module.
func (fw *Forwarder) Service() wire.ServiceID { return wire.SvcPeering }

// Name implements sn.Module.
func (fw *Forwarder) Name() string { return "peering-forwarder" }

// Version implements sn.Module.
func (fw *Forwarder) Version() string { return "1" }

// HandlePacket implements sn.Module.
func (fw *Forwarder) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	var t wire.Transit
	if err := t.DecodeFromBytes(pkt.Hdr.Data); err != nil {
		return sn.Decision{}, err
	}
	local := env.LocalAddr()

	// Tally the edomain crossing for the settlement-free ledger.
	if edHere, ok := fw.fabric.EdomainOf(local); ok {
		if edSrc, ok2 := fw.fabric.EdomainOf(pkt.Src); ok2 && edSrc != edHere {
			fw.fabric.RecordTransfer(edSrc, edHere, len(pkt.Payload))
		}
	}

	next, err := fw.fabric.NextHop(local, t.FinalDst)
	if err != nil {
		return sn.Decision{}, err
	}
	if next == pkt.Src {
		// Split horizon: the peer that sent this believes the way to
		// finalDst leads through here, and this SN believes it leads back.
		// Dropping breaks the loop the two would otherwise sustain.
		fw.splitHorizon.Inc()
		return sn.Decision{}, nil
	}
	// Transit flows are cacheable: later packets of this flow bypass the
	// module entirely.
	return pkt.Route(next, nil, wire.Addr{}), nil
}
