// Package netsim provides the L3 substrate beneath ILP: an addressed,
// unreliable, unordered datagram network. Two implementations are provided:
//
//   - Network: an in-process fabric with configurable per-link latency,
//     bandwidth (FIFO queueing via a fluid model), loss, and partitions.
//     This is the testbed substitute for the paper's CloudLab/Fabric
//     deployments: it exercises identical code above the Transport
//     interface while remaining deterministic under test.
//     Beyond the steady-state LinkProfile, per-link FaultProfiles inject
//     hostile-substrate behaviour — seeded reordering (extra per-datagram
//     delay), duplication, single-bit payload corruption, and latency
//     jitter (see faults.go) — and scripted fault schedules replay
//     flapping partitions, loss bursts, and progressive link degradation
//     over simulated time (Schedule, FlapPartition, LossBurst, Degrade).
//     All randomness comes from the WithSeed RNG and all timing from the
//     WithClock clock, so chaos runs are reproducible.
//   - UDP transport (udp.go): maps wire addresses onto real UDP sockets for
//     cross-process deployments of the same nodes.
//
// Everything above this package (pipes, SNs, services, hosts) sees only the
// Transport interface.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"interedge/internal/clock"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Transport is one node's attachment to the substrate. Its receive side is
// one queue (Receive); the built-in transports can also split it into one
// queue per consumer (ShardedReceiver), which is how a pipe engine's RX
// workers read it.
type Transport interface {
	// LocalAddr returns the node's address.
	LocalAddr() wire.Addr
	// Send transmits one datagram. Send never blocks on the receiver; a
	// full receive queue drops the datagram, as a NIC would.
	//
	// Ownership: the transport must not retain dg.Payload after Send
	// returns — callers may reuse the buffer immediately (the pipe layer
	// pools its send buffers). Implementations that defer transmission
	// must copy first.
	Send(dg wire.Datagram) error
	// Receive returns the channel of inbound datagrams — the first shard,
	// once ShardedReceiver has split the receive side. The channel is
	// closed when the transport closes.
	//
	// Ownership: each received Datagram's Payload is a whole buffer that is
	// the receiver's — Payload[:cap(Payload)], shared with no other datagram
	// — and the transport never reuses or mutates it after delivery. The
	// receiver may keep it for good, or, once it holds no reference to it any
	// more, give it back with wire.RxRelease for a later datagram to be
	// copied into (the built-in transports draw their copies from that pool).
	Receive() <-chan wire.Datagram
	// Close detaches the node.
	Close() error
}

// BatchSender is the optional vectored-egress extension of Transport. Both
// built-in transports implement it natively: the sim fabric resolves
// routing once per destination run and delivers a whole batch under one
// receiver lock, and the UDP transport turns a batch into a single
// sendmmsg(2) on Linux. Third-party transports need not implement it; the
// SendBatch helper falls back to looping Send.
type BatchSender interface {
	// SendBatch transmits dgs in order, returning the number of datagrams
	// consumed by the substrate and the first error encountered; on error,
	// dgs[n:] were not sent. Datagrams accepted and then lost, dropped at a
	// full receive queue, or black-holed by a partition count as consumed,
	// exactly as the corresponding Send would have returned nil.
	//
	// Ownership matches Send: the transport may set each datagram's Src but
	// must not retain dgs or any Payload after SendBatch returns.
	SendBatch(dgs []wire.Datagram) (int, error)
}

// SendBatch transmits a batch through t, using the transport's native
// vectored path when it implements BatchSender and falling back to one
// Send per datagram otherwise. This is the adapter every batching caller
// (the pipe egress coalescer, benchmarks) goes through, so transports
// outside this package keep working unmodified. t needs only Send, so a
// multiplexing attachment (Mux) batches through it too.
func SendBatch(t interface{ Send(wire.Datagram) error }, dgs []wire.Datagram) (int, error) {
	if bs, ok := t.(BatchSender); ok {
		return bs.SendBatch(dgs)
	}
	for i := range dgs {
		if err := t.Send(dgs[i]); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("netsim: transport closed")

// ErrUnknownDestination is returned when no node is attached at the
// destination address.
var ErrUnknownDestination = errors.New("netsim: unknown destination")

// LinkProfile describes the emulated properties of a directed link.
type LinkProfile struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BandwidthBps, if nonzero, applies a fluid FIFO queueing model at the
	// given bytes-per-second rate.
	BandwidthBps float64
	// LossRate in [0,1) drops packets at random.
	LossRate float64
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithClock sets the clock used for latency emulation (default clock.Real).
func WithClock(c clock.Clock) NetworkOption {
	return func(n *Network) { n.clk = c }
}

// WithSeed sets the RNG seed used for loss decisions, making drops
// reproducible.
func WithSeed(seed int64) NetworkOption {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithQueueDepth sets the per-node receive queue depth (default 4096): the
// total across the node's receive shards (ShardedReceiver).
func WithQueueDepth(d int) NetworkOption {
	return func(n *Network) { n.queueDepth = d }
}

// WithTelemetry homes the fabric's netsim_* instruments in an existing
// registry instead of a private one.
func WithTelemetry(r *telemetry.Registry) NetworkOption {
	return func(n *Network) { n.telem = r }
}

// Network is the in-process datagram fabric.
type Network struct {
	mu            sync.RWMutex
	clk           clock.Clock
	rng           *rand.Rand
	rngMu         sync.Mutex
	queueDepth    int
	nodes         map[wire.Addr]*simTransport
	links         map[linkKey]*linkState
	defaults      LinkProfile
	faults        map[linkKey]FaultProfile
	defaultFaults FaultProfile
	partitions    map[linkKey]bool
	telem         *telemetry.Registry
	stats         fabricStats

	// due counts the delayed copies not yet delivered by delivery time
	// (Unix ns), so Settled can tell the late ones from the early.
	dueMu sync.Mutex
	due   map[int64]int
}

type linkKey struct{ from, to wire.Addr }

type linkState struct {
	profile  LinkProfile
	mu       sync.Mutex
	nextFree time.Time // fluid-model: when the link is next idle
}

// fabricStats holds the fabric counters as telemetry instruments in the
// network's registry (the netsim_* series), so the per-packet send path
// never needs the network's exclusive lock.
type fabricStats struct {
	sent         *telemetry.Counter
	delivered    *telemetry.Counter
	droppedLoss  *telemetry.Counter
	droppedQueue *telemetry.Counter
	droppedDead  *telemetry.Counter // destination not attached
	bytesSent    *telemetry.Counter
	duplicated   *telemetry.Counter // extra copies injected by DuplicateRate
	reordered    *telemetry.Counter // datagrams held back by ReorderRate
	corrupted    *telemetry.Counter // delivered copies with an injected bit flip
	batches      *telemetry.Counter // native SendBatch calls on the fabric
}

func newFabricStats(reg *telemetry.Registry) fabricStats {
	return fabricStats{
		sent:         reg.Counter("netsim_sent_total"),
		delivered:    reg.Counter("netsim_delivered_total"),
		droppedLoss:  reg.Counter("netsim_dropped_loss_total"),
		droppedQueue: reg.Counter("netsim_dropped_queue_total"),
		droppedDead:  reg.Counter("netsim_dropped_dead_total"),
		bytesSent:    reg.Counter("netsim_bytes_sent_total"),
		duplicated:   reg.Counter("netsim_duplicated_total"),
		reordered:    reg.Counter("netsim_reordered_total"),
		corrupted:    reg.Counter("netsim_corrupted_total"),
		batches:      reg.Counter("netsim_batches_total"),
	}
}

// NewNetwork creates an empty fabric. By default links are ideal: zero
// latency, unlimited bandwidth, no loss.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{
		clk:        clock.Real{},
		rng:        rand.New(rand.NewSource(1)),
		queueDepth: 4096,
		nodes:      make(map[wire.Addr]*simTransport),
		links:      make(map[linkKey]*linkState),
		faults:     make(map[linkKey]FaultProfile),
		partitions: make(map[linkKey]bool),
		due:        make(map[int64]int),
	}
	for _, o := range opts {
		o(n)
	}
	if n.telem == nil {
		n.telem = telemetry.NewRegistry()
	}
	n.stats = newFabricStats(n.telem)
	return n
}

// Telemetry returns the registry holding the fabric's netsim_*
// instruments (the one supplied via WithTelemetry, or the private
// default).
func (n *Network) Telemetry() *telemetry.Registry { return n.telem }

// SetDefaultLink sets the profile applied to links with no explicit profile.
func (n *Network) SetDefaultLink(p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaults = p
}

// SetLink sets the profile of the directed link from→to.
func (n *Network) SetLink(from, to wire.Addr, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = &linkState{profile: p}
}

// SetLinkBoth sets the profile in both directions.
func (n *Network) SetLinkBoth(a, b wire.Addr, p LinkProfile) {
	n.SetLink(a, b, p)
	n.SetLink(b, a, p)
}

// Partition severs connectivity between a and b in both directions.
func (n *Network) Partition(a, b wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[linkKey{a, b}] = true
	n.partitions[linkKey{b, a}] = true
}

// Heal restores connectivity between a and b.
func (n *Network) Heal(a, b wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, linkKey{a, b})
	delete(n.partitions, linkKey{b, a})
}

// Attach connects a new node at addr and returns its transport.
func (n *Network) Attach(addr wire.Addr) (Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.nodes[addr]; exists {
		return nil, fmt.Errorf("netsim: address %s already attached", addr)
	}
	t := &simTransport{
		net:  n,
		addr: addr,
		rx:   newRxQueues(n.queueDepth),
	}
	n.nodes[addr] = t
	return t, nil
}

// detach removes a node; called by simTransport.Close.
func (n *Network) detach(addr wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
}

func (n *Network) linkFor(from, to wire.Addr) *linkState {
	if l, ok := n.links[linkKey{from, to}]; ok {
		return l
	}
	return nil
}

// route is the resolved forwarding state of one directed link, read once
// under the shared lock and then used without it.
type route struct {
	dst         *simTransport
	link        *linkState
	profile     LinkProfile
	faults      FaultProfile
	partitioned bool
}

// routeLocked resolves the src→dst link. Caller holds n.mu (read).
func (n *Network) routeLocked(src, dst wire.Addr) (route, error) {
	var r route
	if n.partitions[linkKey{src, dst}] {
		r.partitioned = true
		return r, nil
	}
	node, ok := n.nodes[dst]
	if !ok {
		return r, ErrUnknownDestination
	}
	r.dst = node
	r.link = n.linkFor(src, dst)
	r.profile = n.defaults
	if r.link != nil {
		r.profile = r.link.profile
	}
	r.faults = n.defaultFaults
	if f, ok := n.faults[linkKey{src, dst}]; ok {
		r.faults = f
	}
	return r, nil
}

// fate decides one datagram's outcome on a resolved route: drop by loss, or
// deliver after delay with optional corruption and duplication. All random
// draws happen under the shared RNG lock in datagram order, so a fixed seed
// yields the same fault pattern whether datagrams arrive one Send at a time
// or in a batch.
type fate struct {
	drop      bool
	delay     time.Duration
	corrupt   bool
	duplicate bool
	dupDelay  time.Duration
}

func (n *Network) fateFor(dg *wire.Datagram, r *route) fate {
	var f fate
	if r.profile.LossRate > 0 {
		n.rngMu.Lock()
		f.drop = n.rng.Float64() < r.profile.LossRate
		n.rngMu.Unlock()
		if f.drop {
			n.stats.droppedLoss.Add(1)
			return f
		}
	}

	f.delay = r.profile.Latency
	if r.profile.BandwidthBps > 0 {
		txTime := time.Duration(float64(len(dg.Payload)+wire.DatagramHeaderSize) / r.profile.BandwidthBps * float64(time.Second))
		now := n.clk.Now()
		if r.link != nil {
			r.link.mu.Lock()
			start := r.link.nextFree
			if start.Before(now) {
				start = now
			}
			r.link.nextFree = start.Add(txTime)
			f.delay += r.link.nextFree.Sub(now)
			r.link.mu.Unlock()
		} else {
			f.delay += txTime
		}
	}

	if r.faults.active() {
		base := f.delay
		n.rngMu.Lock()
		if r.faults.ReorderRate > 0 && n.rng.Float64() < r.faults.ReorderRate {
			d := r.faults.ReorderDelayMin
			if span := r.faults.ReorderDelayMax - r.faults.ReorderDelayMin; span > 0 {
				d += time.Duration(n.rng.Int63n(int64(span)))
			}
			f.delay += d
			n.stats.reordered.Add(1)
		}
		if r.faults.JitterMax > 0 {
			f.delay += time.Duration(n.rng.Int63n(int64(r.faults.JitterMax)))
		}
		if r.faults.DuplicateRate > 0 && n.rng.Float64() < r.faults.DuplicateRate {
			f.duplicate = true
			f.dupDelay = base
			if r.faults.JitterMax > 0 {
				f.dupDelay += time.Duration(n.rng.Int63n(int64(r.faults.JitterMax)))
			}
		}
		if r.faults.CorruptRate > 0 && n.rng.Float64() < r.faults.CorruptRate {
			f.corrupt = true
		}
		n.rngMu.Unlock()
	}
	return f
}

// readyRun is how many zero-delay deliveries SendBatch lands under one
// receiver-lock acquisition: the pipe layer's egress batch cap.
const readyRun = 32

// sendBatch is the fabric's one send path — a lone Send is a batch of one:
// routing is resolved once per destination run, counters are aggregated per
// batch, and every zero-delay delivery in a same-destination run lands under
// a single receiver-lock acquisition. The receiver's copy of each datagram
// is made here (wire.RxCopy), or by transmit for a delayed or duplicated
// one. Fault and loss draws are strictly per-datagram (in order), so a
// batch observes the same seeded fault pattern the equivalent Send
// sequence would.
//
// ready is the caller's empty scratch for the zero-delay copies of the
// current same-destination run, flushed whenever it is full. It lives on
// the caller's stack, so a batch of any size allocates nothing here, and a
// lone Send clears one slot of it, not readyRun.
func (n *Network) sendBatch(dgs, ready []wire.Datagram) (int, error) {
	var sent, bytes uint64
	var cur route
	var curSrc, curDst wire.Addr
	haveRoute := false

	flushReady := func() {
		if len(ready) > 0 {
			n.deliverRun(cur.dst, ready)
			ready = ready[:0]
		}
	}

	for i := range dgs {
		dg := &dgs[i]
		if len(dg.Payload) > wire.MTU {
			flushReady()
			n.stats.sent.Add(sent)
			n.stats.bytesSent.Add(bytes)
			return i, fmt.Errorf("netsim: payload %d exceeds MTU", len(dg.Payload))
		}
		if !haveRoute || dg.Src != curSrc || dg.Dst != curDst {
			flushReady()
			n.mu.RLock()
			r, err := n.routeLocked(dg.Src, dg.Dst)
			n.mu.RUnlock()
			if err != nil {
				n.stats.sent.Add(sent + 1)
				n.stats.bytesSent.Add(bytes + uint64(len(dg.Payload)))
				n.stats.droppedDead.Add(1)
				return i, err
			}
			cur, curSrc, curDst, haveRoute = r, dg.Src, dg.Dst, true
		}
		sent++
		bytes += uint64(len(dg.Payload))
		if cur.partitioned {
			n.stats.droppedDead.Add(1)
			continue
		}
		f := n.fateFor(dg, &cur)
		if f.drop {
			continue
		}
		if f.delay <= 0 && !f.duplicate {
			// Common case on ideal links: queue the copy for the single
			// locked delivery run.
			cp := *dg
			cp.Payload = wire.RxCopy(dg.Payload)
			if f.corrupt {
				n.corruptCopy(cp.Payload)
			}
			if len(ready) == cap(ready) {
				flushReady()
			}
			ready = append(ready, cp)
			continue
		}
		flushReady()
		n.transmit(cur.dst, *dg, f.delay, f.corrupt)
		if f.duplicate {
			n.stats.duplicated.Add(1)
			n.transmit(cur.dst, *dg, f.dupDelay, false)
		}
	}
	flushReady()
	n.stats.sent.Add(sent)
	n.stats.bytesSent.Add(bytes)
	return len(dgs), nil
}

// deliverRun queues copies the fabric made for dst, all bound for one
// receive queue, under a single receiver-lock acquisition; a copy it has to
// drop instead goes back to the pool it came from.
func (n *Network) deliverRun(dst *simTransport, cps []wire.Datagram) {
	var delivered, droppedQueue uint64
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		n.stats.droppedDead.Add(uint64(len(cps)))
		for _, cp := range cps {
			wire.RxRelease(cp.Payload)
		}
		return
	}
	q := queueFor(dst.rx.load(), cps[0].Src, cps[0].Dst)
	for _, cp := range cps {
		select {
		case q <- cp:
			delivered++
		default:
			droppedQueue++
			wire.RxRelease(cp.Payload)
		}
	}
	dst.mu.Unlock()
	n.stats.delivered.Add(delivered)
	n.stats.droppedQueue.Add(droppedQueue)
}

// corruptCopy flips one random bit of a payload copy.
func (n *Network) corruptCopy(p []byte) {
	if len(p) == 0 {
		return
	}
	n.rngMu.Lock()
	i := n.rng.Intn(len(p))
	bit := byte(1) << n.rng.Intn(8)
	n.rngMu.Unlock()
	p[i] ^= bit
	n.stats.corrupted.Add(1)
}

// transmit copies the payload (the Send contract lets the sender reuse its
// buffer as soon as Send returns, and the Receive contract gives the
// receiver sole ownership), optionally flips one bit of the copy, and
// delivers it after delay. A duplicate is a second transmit and so a second
// copy.
func (n *Network) transmit(dst *simTransport, dg wire.Datagram, delay time.Duration, corrupt bool) {
	cp := dg
	cp.Payload = wire.RxCopy(dg.Payload)
	if corrupt {
		n.corruptCopy(cp.Payload)
	}
	if delay <= 0 {
		n.deliverRun(dst, []wire.Datagram{cp})
		return
	}
	// Register the timer synchronously so that a Manual clock advanced
	// right after Send returns still fires this delivery. The clock is read
	// after: the recorded time is never before the timer's, so a copy
	// Settled counts as due has had its timer fire.
	timer := n.clk.After(delay)
	at := n.clk.Now().Add(delay).UnixNano()
	n.dueMu.Lock()
	n.due[at]++
	n.dueMu.Unlock()
	go func() {
		<-timer
		n.deliverRun(dst, []wire.Datagram{cp})
		n.dueMu.Lock()
		if n.due[at]--; n.due[at] == 0 {
			delete(n.due, at)
		}
		n.dueMu.Unlock()
	}()
}

// Settled reports whether every datagram due by now has reached its
// receiver: no delayed copy whose time has come is still undelivered, and
// every receive queue is empty. A driver of a Manual clock can wait for it
// after each Advance, so that simulated time does not outrun the nodes.
func (n *Network) Settled() bool {
	now := n.clk.Now().UnixNano()
	n.dueMu.Lock()
	for at := range n.due {
		if at <= now {
			n.dueMu.Unlock()
			return false
		}
	}
	n.dueMu.Unlock()
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, t := range n.nodes {
		if t.rx.backlog() > 0 {
			return false
		}
	}
	return true
}

type simTransport struct {
	net  *Network
	addr wire.Addr
	rx   *rxQueues
	// shared marks a Mux port: rx belongs to the Mux and is shared with
	// other ports, so Close must not close it.
	shared bool
	mu     sync.Mutex
	// closed is guarded by mu; deliverRun checks it before sending on rx so
	// Close can safely close the queues.
	closed bool
}

func (t *simTransport) LocalAddr() wire.Addr { return t.addr }

// Send is SendBatch of one datagram, less the batch count.
func (t *simTransport) Send(dg wire.Datagram) error {
	if t.isClosed() {
		return ErrClosed
	}
	dg.Src = t.addr
	var ready [1]wire.Datagram
	_, err := t.net.sendBatch([]wire.Datagram{dg}, ready[:0])
	return err
}

// SendBatch implements BatchSender natively on the fabric: one closed-flag
// check and one batch counter bump up front, then the network's vectored
// path, which delivers zero-delay same-destination runs under a single
// receiver-lock acquisition.
func (t *simTransport) SendBatch(dgs []wire.Datagram) (int, error) {
	if t.isClosed() {
		return 0, ErrClosed
	}
	for i := range dgs {
		dgs[i].Src = t.addr
	}
	t.net.stats.batches.Add(1)
	var ready [readyRun]wire.Datagram
	return t.net.sendBatch(dgs, ready[:0])
}

func (t *simTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *simTransport) Receive() <-chan wire.Datagram { return t.rx.first() }

// ReceiveShards implements ShardedReceiver. deliverRun holds the
// endpoint's lock across its queue send, so taking it here is enough.
func (t *simTransport) ReceiveShards(n int) []<-chan wire.Datagram {
	t.mu.Lock()
	dropped := t.rx.split(n)
	t.mu.Unlock()
	t.net.stats.droppedQueue.Add(uint64(dropped))
	return t.rx.shards()
}

// RegisterTelemetry implements telemetry.Registrable: the fabric endpoint
// contributes lazy gauges for its receive backlog — the total, and the
// fullest shard's — so a node's snapshot shows transport backpressure.
func (t *simTransport) RegisterTelemetry(r *telemetry.Registry) {
	registerRxGauges(r, t.rx)
}

// registerRxGauges registers the receive-backlog gauges of rx in r.
func registerRxGauges(r *telemetry.Registry, rx *rxQueues) {
	_ = r.Register(telemetry.NewGaugeFunc("transport_rx_queue_depth", func() int64 {
		return int64(rx.backlog())
	}))
	_ = r.Register(telemetry.NewGaugeFunc("transport_rx_queue_depth_max", func() int64 {
		return int64(rx.deepest())
	}))
}

func (t *simTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	if !t.shared {
		t.rx.close()
	}
	t.mu.Unlock()
	t.net.detach(t.addr)
	return nil
}

// attachShared registers a port at addr whose inbound traffic lands on the
// caller-owned shared queues rx; used by Mux. Caller closes rx, never the
// port.
func (n *Network) attachShared(addr wire.Addr, rx *rxQueues) (*simTransport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.nodes[addr]; exists {
		return nil, fmt.Errorf("netsim: address %s already attached", addr)
	}
	t := &simTransport{net: n, addr: addr, rx: rx, shared: true}
	n.nodes[addr] = t
	return t, nil
}

// AddrAllocator hands out sequential unique-local addresses for building
// topologies.
type AddrAllocator struct {
	mu   sync.Mutex
	next uint32
}

// NewAddrAllocator returns an allocator starting at fd00::1.
func NewAddrAllocator() *AddrAllocator { return &AddrAllocator{next: 1} }

// Next returns the next unused address.
func (a *AddrAllocator) Next() wire.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := a.next
	a.next++
	var b [16]byte
	b[0] = 0xfd
	b[12] = byte(v >> 24)
	b[13] = byte(v >> 16)
	b[14] = byte(v >> 8)
	b[15] = byte(v)
	return addrFrom16(b)
}
