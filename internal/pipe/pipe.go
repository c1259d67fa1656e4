// Package pipe manages ILP pipes: the long-lived, handshake-keyed,
// PSP-encrypted point-to-point channels between hosts and SNs and between
// SNs (§3.1 "Host-to-SN Pipes", "SN-to-SN Pipe"). A Manager owns one
// transport attachment and all pipes radiating from it; both the host stack
// and the SN pipe-terminus are built on top of it.
//
// The Manager handles:
//   - handshake initiation, response, retransmission, and simultaneous-open
//     tie-breaking (the numerically lower address acts as initiator);
//   - per-peer PSP seal/open state and epoch rotation;
//   - dispatch of decrypted (header, payload) pairs to a PacketHandler.
//
// Receive processing is sharded across RxWorkers goroutines by source
// address: all datagrams from one peer (handshakes and ILP alike) are
// handled by the same worker in arrival order, so per-peer packet order is
// preserved while independent peers decrypt concurrently. The PacketHandler
// therefore runs concurrently for packets from different sources; callers
// needing further concurrency (e.g. the SN module runtime) hand off
// internally.
package pipe

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/clock"
	"interedge/internal/cryptutil"
	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/psp"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Sender is the egress surface handed to PacketHandlers. On the hot path it
// is the worker's coalescing egress queue (sends may be batched until the
// worker's input drains or the per-destination cap is hit, and the queued
// packets of one destination are sealed together at flush time with a single
// cipher-state fetch); with coalescing disabled it is the Manager itself and
// every send is sealed and goes out immediately. Either way SendHeaderBytes
// copies hdrBytes and payload at call time, so the caller may reuse both as
// soon as it returns.
type Sender interface {
	SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error
}

// PacketHandler receives every decrypted inbound ILP packet. tx is the
// worker's egress Sender: forwards issued through it coalesce into vectored
// batches (see Config.TxBatch) while preserving per-source order. hdrRaw is
// the encoded form of hdr, handed to the handler so a forwarding fast path
// can re-seal it without re-encoding.
//
// Ownership, stated here once for everything above the pipe layer (the SN's
// modules, host.Message): payload is the handler's to keep — or, for a
// BatchPacketHandler that holds no reference any more, to give back once
// with pkt.Release(). The transport gave the datagram to its receiver for
// good (netsim.Transport.Receive), the pipe decrypted it in place, and
// nothing below writes to it again — so a handler retains, queues or hands on
// payload without copying it. hdr.Data and hdrRaw are the opposite: they
// alias the worker's open scratch, are overwritten when the same worker
// processes its next packet, and must be copied if retained.
//
// Handlers run concurrently for packets from different source addresses but
// serially, in arrival order, for any single source. tx is only valid for
// the duration of the call and must not be used from other goroutines; work
// handed off internally must send through the Manager instead.
type PacketHandler func(tx Sender, src wire.Addr, hdr wire.ILPHeader, hdrRaw, payload []byte)

// RxPacket is one decrypted inbound ILP packet of a receive batch. Hdr is
// the decoded header; HdrRaw is its encoded form (for re-seal-without-
// re-encode forwarding); Payload is the application payload. HdrRaw and
// Hdr.Data alias the worker's batch-open arena, valid only until the handler
// returns; Payload is the handler's to keep or to Release (see PacketHandler).
type RxPacket struct {
	Hdr     wire.ILPHeader
	HdrRaw  []byte
	Payload []byte
	// buf is the received datagram Payload lies in: the whole buffer the
	// transport gave this node. It rides here, in the worker's scratch,
	// because a word on wire.Datagram would widen every receive-queue slot.
	buf []byte
}

// Release gives the packet's receive buffer back for a later inbound
// datagram to be copied into (wire.RxRelease). Only a handler that holds no
// reference to Payload any more may call it — everything it forwarded has
// been copied by then (Sender) — and Payload is gone afterwards. Releasing is
// optional, and a second Release is a no-op.
func (p *RxPacket) Release() {
	wire.RxRelease(p.buf)
	p.buf, p.Payload = nil, nil
}

// BatchPacketHandler receives each decrypted same-source run of an RX batch
// as one call, preserving arrival order within pkts. It is the batch
// counterpart of PacketHandler: the same ordering, aliasing, and tx-validity
// rules apply to every element of pkts. Liveness probes are answered by the
// Manager and never appear in pkts.
type BatchPacketHandler func(tx Sender, src wire.Addr, pkts []RxPacket)

// AuthorizePeer decides whether to accept a pipe with the given peer. It is
// consulted on both initiation and response.
type AuthorizePeer func(addr wire.Addr, identity ed25519.PublicKey) bool

// PeerUpHandler is notified when a pipe becomes established.
type PeerUpHandler func(addr wire.Addr, identity ed25519.PublicKey)

// PeerDownHandler is notified when dead-peer detection tears a pipe down
// (no authenticated traffic within DeadAfter despite keepalive probes).
// It runs on the keepalive goroutine; implementations must not block.
type PeerDownHandler func(addr wire.Addr, identity ed25519.PublicKey)

// Errors returned by the Manager.
var (
	ErrNoPipe           = errors.New("pipe: no established pipe to destination")
	ErrHandshakeTimeout = errors.New("pipe: handshake timed out")
	ErrUnauthorized     = errors.New("pipe: peer rejected by authorization policy")
	ErrManagerClosed    = errors.New("pipe: manager closed")
)

// Config configures a Manager.
type Config struct {
	Transport netsim.Transport
	Identity  handshake.Identity
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Handler receives inbound packets; required for nodes that accept
	// traffic (unless BatchHandler is set).
	Handler PacketHandler
	// BatchHandler, when set, takes precedence over Handler: each decrypted
	// same-source run of a receive batch is delivered as one call, letting
	// the consumer amortize per-packet work (e.g. run-coalesced decision-
	// cache lookups) across the run. When nil, packets are delivered one at
	// a time through Handler.
	BatchHandler BatchPacketHandler
	// Authorize defaults to accept-all.
	Authorize AuthorizePeer
	// OnPeerUp is optional.
	OnPeerUp PeerUpHandler
	// OnPeerDown is notified when dead-peer detection removes a pipe.
	// Optional; only fires when KeepaliveInterval > 0.
	OnPeerDown PeerDownHandler
	// HandshakeTimeout is the retransmission interval of the FIRST msg1
	// attempt (default 250ms). Subsequent attempts back off exponentially
	// with jitter, capped at HandshakeBackoffMax.
	HandshakeTimeout time.Duration
	// HandshakeBackoffMax caps the per-attempt backoff (default
	// 8×HandshakeTimeout).
	HandshakeBackoffMax time.Duration
	// HandshakeRetries is the number of msg1 transmissions before giving
	// up (default 5).
	HandshakeRetries int
	// KeepaliveInterval, when nonzero, enables pipe liveness: a sealed
	// probe is sent on any pipe idle longer than the interval, and a pipe
	// with no authenticated inbound traffic for DeadAfter is torn down
	// (OnPeerDown fires, and with Reestablish set a fresh handshake is
	// attempted automatically).
	KeepaliveInterval time.Duration
	// DeadAfter is the idle window after which a peer is declared dead
	// (default 4×KeepaliveInterval).
	DeadAfter time.Duration
	// Reestablish re-handshakes dead peers automatically with capped
	// exponential backoff until the pipe is back or the manager closes.
	// The new pipe has a fresh master secret, so its key epochs restart.
	Reestablish bool
	// JitterSeed seeds the backoff-jitter RNG; 0 derives a per-node seed
	// from the local address, keeping simulations deterministic while
	// decorrelating retry times across nodes.
	JitterSeed int64
	// RxWorkers is the number of receive-pipeline workers inbound
	// datagrams are sharded onto by source address (default GOMAXPROCS).
	// With 1 worker every packet is processed inline on the receive
	// goroutine, matching the pre-sharding single-core pipeline.
	RxWorkers int
	// TxBatch caps the per-destination egress coalescing queue each worker
	// offers its PacketHandler: sends through the handler's Sender
	// accumulate and go out as one transport batch when the worker's input
	// drains (NAPI-style — a worker with nothing left to read flushes
	// immediately, so an idle node adds no latency) or when a destination
	// reaches the cap under backpressure. 0 selects the default (32); 1
	// disables coalescing and hands the handler the Manager directly.
	TxBatch int
	// Telemetry is the registry the manager's pipe_* instruments are
	// created in, normally the owning node's registry so pipe metrics
	// appear in the node's snapshot. Nil creates a private registry
	// (still readable via Stats()).
	Telemetry *telemetry.Registry
}

// DefaultTxBatch is the per-destination coalescing cap when Config.TxBatch
// is zero. It matches the transports' vectored-syscall batch sizing.
const DefaultTxBatch = 32

// PeerInfo reports the state of one established pipe.
type PeerInfo struct {
	Addr        wire.Addr
	Identity    ed25519.PublicKey
	Established time.Time
	TxPackets   uint64
	RxPackets   uint64
	TxBytes     uint64
	RxBytes     uint64
}

type peer struct {
	addr     wire.Addr
	identity ed25519.PublicKey
	crypto   *psp.PipeCrypto
	up       time.Time

	// Handshake-derived key material, retained so the pipe can be exported
	// to a sibling node during a drain (ExportPeer) without a fresh
	// handshake. Immutable after establish/import.
	master    cryptutil.Key
	initiator bool
	baseSPI   uint32

	txPackets atomic.Uint64
	rxPackets atomic.Uint64
	txBytes   atomic.Uint64
	rxBytes   atomic.Uint64
	// lastRx is the UnixNano timestamp of the last authenticated inbound
	// packet; keepalive liveness is judged against it.
	lastRx atomic.Int64
}

type pendingConn struct {
	hs   *handshake.Pending
	done chan struct{} // closed when the pipe (by any path) is up
	err  error
}

// peerMap is the copy-on-write peer table: readers load it atomically and
// never lock; writers clone it under Manager.mu.
type peerMap map[wire.Addr]*peer

// sealBuf bundles the reusable buffers for one in-flight send: the framed
// output packet, the header Send encodes for it, and the PSP seal scratch.
type sealBuf struct {
	buf     []byte
	hdr     []byte
	scratch psp.Scratch
}

// encodeHeader encodes hdr into the buffer's header scratch.
func (sb *sealBuf) encodeHeader(hdr *wire.ILPHeader) ([]byte, error) {
	enc, err := hdr.AppendEncode(sb.hdr[:0])
	sb.hdr = enc
	return enc, err
}

// rxWorkerQueueDepth bounds each worker's backlog. A full queue blocks the
// receive loop (backpressure into the transport queue, which drops like a
// NIC would) rather than reordering or dropping here.
const rxWorkerQueueDepth = 512

// rxDispatchBatch caps how many queued datagrams a worker gathers before
// dispatching them as one batch. It matches the transports' vectored
// receive sizing, so one recvmmsg burst flows through one crypto pass.
const rxDispatchBatch = 32

// rxRun is a worker's reusable batch-dispatch scratch: the gathered
// datagrams, the per-run sealed bodies and open results, and the decoded
// packets handed to the batch handler.
type rxRun struct {
	dgs     []wire.Datagram
	bodies  [][]byte
	results []psp.OpenResult
	pkts    []RxPacket
}

// Stats aggregates manager-wide pipe metrics. It is a view over the
// manager's telemetry instruments (the pipe_* names in the node registry);
// each field is read atomically, but fields are not read at one common
// instant — see the telemetry package consistency contract.
type Stats struct {
	HandshakeAttempts uint64 // msg1 transmissions, including retries
	HandshakeFailures uint64 // Connect calls that exhausted their retries
	KeepalivesSent    uint64 // liveness probes transmitted
	KeepalivesRcvd    uint64 // probes answered for peers
	PeersLost         uint64 // pipes torn down by dead-peer detection
	Reestablished     uint64 // automatic re-handshakes that succeeded
	TxBatches         uint64 // egress coalescing flushes handed to the transport
	TxBatchedPackets  uint64 // packets sent through coalesced flushes
	TxFlushDrops      uint64 // packets a failing flush could not hand off
}

// Manager owns all pipes of one node.
type Manager struct {
	cfg   Config
	local wire.Addr
	telem *telemetry.Registry

	peers atomic.Pointer[peerMap]

	mu        sync.Mutex // guards pending, redialing, respCache, closed, and peer-map writes
	pending   map[wire.Addr]*pendingConn
	redialing map[wire.Addr]bool
	respCache map[wire.Addr]msg1Reply
	closed    bool

	retry *Backoff // handshake/redial backoff with deterministic jitter

	workers  []chan wire.Datagram
	sealBufs sync.Pool

	// Pipe metrics live in the node's telemetry registry; these handles
	// are the hot-path instruments (atomic counters, one histogram).
	handshakeAttempts *telemetry.Counter
	handshakeFailures *telemetry.Counter
	keepalivesSent    *telemetry.Counter
	keepalivesRcvd    *telemetry.Counter
	peersLost         *telemetry.Counter
	reestablished     *telemetry.Counter
	txBatches         *telemetry.Counter
	txBatchedPackets  *telemetry.Counter
	txFlushDrops      *telemetry.Counter
	flushBatchSize    *telemetry.Histogram
	rxOpenBatchSize   *telemetry.Histogram

	done chan struct{}
	wg   sync.WaitGroup
}

// New creates a Manager and starts its receive pipeline.
func New(cfg Config) (*Manager, error) {
	if cfg.Transport == nil {
		return nil, errors.New("pipe: Config.Transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Authorize == nil {
		cfg.Authorize = func(wire.Addr, ed25519.PublicKey) bool { return true }
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 250 * time.Millisecond
	}
	if cfg.HandshakeBackoffMax == 0 {
		cfg.HandshakeBackoffMax = 8 * cfg.HandshakeTimeout
	}
	if cfg.HandshakeRetries == 0 {
		cfg.HandshakeRetries = 5
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = 4 * cfg.KeepaliveInterval
	}
	if cfg.RxWorkers == 0 {
		cfg.RxWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.RxWorkers < 1 {
		cfg.RxWorkers = 1
	}
	if cfg.TxBatch == 0 {
		cfg.TxBatch = DefaultTxBatch
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		// Derive a deterministic per-node seed so retry jitter is
		// reproducible in simulation yet decorrelated across nodes.
		b := cfg.Transport.LocalAddr().As16()
		seed = DeriveSeed(b[:])
	}
	m := &Manager{
		cfg:       cfg,
		local:     cfg.Transport.LocalAddr(),
		pending:   make(map[wire.Addr]*pendingConn),
		redialing: make(map[wire.Addr]bool),
		respCache: make(map[wire.Addr]msg1Reply),
		retry:     NewBackoff(cfg.HandshakeTimeout, cfg.HandshakeBackoffMax, seed),
		done:      make(chan struct{}),
	}
	empty := make(peerMap)
	m.peers.Store(&empty)
	m.sealBufs.New = func() any { return new(sealBuf) }
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m.telem = reg
	m.handshakeAttempts = reg.Counter("pipe_handshake_attempts_total")
	m.handshakeFailures = reg.Counter("pipe_handshake_failures_total")
	m.keepalivesSent = reg.Counter("pipe_keepalives_sent_total")
	m.keepalivesRcvd = reg.Counter("pipe_keepalives_rcvd_total")
	m.peersLost = reg.Counter("pipe_peers_lost_total")
	m.reestablished = reg.Counter("pipe_reestablished_total")
	m.txBatches = reg.Counter("pipe_tx_batches_total")
	m.txBatchedPackets = reg.Counter("pipe_tx_batched_packets_total")
	m.txFlushDrops = reg.Counter("pipe_tx_flush_drops_total")
	m.flushBatchSize = reg.Histogram("pipe_tx_flush_batch_size", telemetry.BatchBuckets)
	m.rxOpenBatchSize = reg.Histogram("pipe_rx_open_batch_size", telemetry.BatchBuckets)
	_ = reg.Register(telemetry.NewGaugeFunc("pipe_peers", func() int64 {
		return int64(len(*m.peers.Load()))
	}))
	if cfg.RxWorkers > 1 {
		m.workers = make([]chan wire.Datagram, cfg.RxWorkers)
		for i := range m.workers {
			ch := make(chan wire.Datagram, rxWorkerQueueDepth)
			m.workers[i] = ch
			m.wg.Add(1)
			go m.runWorker(ch)
		}
	}
	m.wg.Add(1)
	go m.receiveLoop()
	if cfg.KeepaliveInterval > 0 {
		m.wg.Add(1)
		go m.keepaliveLoop()
	}
	return m, nil
}

// LocalAddr returns the node's address.
func (m *Manager) LocalAddr() wire.Addr { return m.local }

// Identity returns the node's identity.
func (m *Manager) Identity() handshake.Identity { return m.cfg.Identity }

// RxWorkers returns the effective receive-pipeline width.
func (m *Manager) RxWorkers() int { return m.cfg.RxWorkers }

// Telemetry returns the registry holding the manager's pipe_* instruments
// (the one supplied in Config.Telemetry, or the private default).
func (m *Manager) Telemetry() *telemetry.Registry { return m.telem }

// shardFor maps a source address onto a worker index, so one peer's traffic
// always lands on one worker. It uses the shared wire.ShardIndex hash, the
// same one a source-affine decision cache shards by: when the cache is
// created with as many shards as there are RX workers, the worker that
// handles a source owns that source's cache shard exclusively.
func shardFor(src wire.Addr, n int) int {
	return wire.ShardIndex(src, n)
}

func (m *Manager) receiveLoop() {
	defer m.wg.Done()
	n := len(m.workers)
	if n == 0 {
		// Single-worker pipeline: process inline with the same adaptive
		// egress coalescing the sharded workers get.
		m.consume(m.cfg.Transport.Receive())
		return
	}
	for dg := range m.cfg.Transport.Receive() {
		if len(dg.Payload) < 1 {
			continue
		}
		m.workers[shardFor(dg.Src, n)] <- dg
	}
	for _, ch := range m.workers {
		close(ch)
	}
}

func (m *Manager) runWorker(ch chan wire.Datagram) {
	defer m.wg.Done()
	m.consume(ch)
}

// consume is the body every receive worker runs: gather whatever the input
// channel has ready (up to rxDispatchBatch), push the whole batch through
// one crypto pass, and let egress coalesce while more input is immediately
// available. The flush policy is NAPI-style adaptive — the inner drain loop
// keeps gathering and dispatching as long as the channel has a datagram
// ready, and the coalescer flushes the moment it does not. At low load every
// packet therefore flushes before the worker blocks again (no added
// latency); under backpressure receive batches grow toward rxDispatchBatch
// and egress batches toward the per-destination cap.
func (m *Manager) consume(ch <-chan wire.Datagram) {
	var scratch psp.Scratch
	var rb rxRun
	var tx Sender = m
	var eg *egress
	if m.cfg.TxBatch > 1 {
		eg = m.newEgress()
		tx = eg
	}
	for {
		dg, ok := <-ch
		if !ok {
			return
		}
		rb.dgs = append(rb.dgs[:0], dg)
		closed := false
	drain:
		for {
			select {
			case dg, ok = <-ch:
				if !ok {
					closed = true
					break drain
				}
				rb.dgs = append(rb.dgs, dg)
				if len(rb.dgs) >= rxDispatchBatch {
					m.dispatchBatch(tx, &rb, &scratch)
					rb.dgs = rb.dgs[:0]
				}
			default:
				break drain
			}
		}
		if len(rb.dgs) > 0 {
			m.dispatchBatch(tx, &rb, &scratch)
			rb.dgs = rb.dgs[:0]
		}
		if eg != nil {
			eg.flushAll()
		}
		if closed {
			return
		}
	}
}

// dispatchBatch walks one gathered batch in arrival order: handshake frames
// are handled inline, and each maximal run of consecutive ILP datagrams
// from one source is opened and delivered as a unit.
func (m *Manager) dispatchBatch(tx Sender, rb *rxRun, scratch *psp.Scratch) {
	dgs := rb.dgs
	for i := 0; i < len(dgs); {
		if len(dgs[i].Payload) < 1 {
			i++
			continue
		}
		switch wire.FrameType(dgs[i].Payload[0]) {
		case wire.FrameHandshake1:
			m.handleMsg1(dgs[i].Src, dgs[i].Payload[1:])
			i++
		case wire.FrameHandshake2:
			m.handleMsg2(dgs[i].Src, dgs[i].Payload[1:])
			i++
		case wire.FrameILP:
			j := i + 1
			for j < len(dgs) && dgs[j].Src == dgs[i].Src &&
				len(dgs[j].Payload) >= 1 &&
				wire.FrameType(dgs[j].Payload[0]) == wire.FrameILP {
				j++
			}
			m.handleILPRun(tx, dgs[i].Src, dgs[i:j], rb, scratch)
			i = j
		default:
			i++
		}
	}
}

// handleILPRun opens one same-source run of sealed ILP packets with a
// single OpenBatch pass and delivers the survivors — through BatchHandler
// as one call when configured, else per packet through Handler. Per-packet
// failures (auth, replay, truncation) drop only the offending packet.
func (m *Manager) handleILPRun(tx Sender, src wire.Addr, dgs []wire.Datagram, rb *rxRun, scratch *psp.Scratch) {
	p := m.peer(src)
	n := len(dgs)
	if p == nil {
		for k := 0; k < n; k++ {
			wire.RxRelease(dgs[k].Payload)
		}
		return
	}
	m.rxOpenBatchSize.Observe(uint64(n))
	bodies := rb.bodies[:0]
	for k := 0; k < n; k++ {
		bodies = append(bodies, dgs[k].Payload[1:])
	}
	rb.bodies = bodies
	if cap(rb.results) < n {
		rb.results = make([]psp.OpenResult, n)
	}
	results := rb.results[:n]
	p.crypto.RX.OpenBatch(scratch, bodies, results)
	var okPkts, okBytes uint64
	pkts := rb.pkts[:0]
	// What never reaches a handler — a datagram that does not open or
	// decode, a probe, a probe ack — is consumed here, and its buffer goes
	// back to the pool: a flood of forged packets makes no garbage.
	for k := 0; k < n; k++ {
		if results[k].Err != nil {
			wire.RxRelease(dgs[k].Payload)
			continue
		}
		okPkts++
		okBytes += uint64(len(bodies[k]))
		var hdr wire.ILPHeader
		if _, err := hdr.DecodeFromBytes(results[k].Hdr); err != nil {
			wire.RxRelease(dgs[k].Payload)
			continue
		}
		switch hdr.Service {
		case wire.SvcPipeProbe:
			// Liveness probe: answer through the pipe so the ack proves we
			// still hold the keys. Never dispatched to the handler.
			m.keepalivesRcvd.Add(1)
			ack := wire.ILPHeader{Service: wire.SvcPipeProbeAck, Conn: hdr.Conn}
			_ = m.Send(src, &ack, nil)
			wire.RxRelease(dgs[k].Payload)
			continue
		case wire.SvcPipeProbeAck:
			wire.RxRelease(dgs[k].Payload)
			continue // lastRx refreshed below with the rest of the run
		}
		pkts = append(pkts, RxPacket{Hdr: hdr, HdrRaw: results[k].Hdr, Payload: results[k].Payload, buf: dgs[k].Payload})
	}
	rb.pkts = pkts
	if okPkts > 0 {
		p.rxPackets.Add(okPkts)
		p.rxBytes.Add(okBytes)
		if m.cfg.KeepaliveInterval > 0 {
			p.lastRx.Store(m.cfg.Clock.Now().UnixNano())
		}
	}
	if len(pkts) == 0 {
		return
	}
	if m.cfg.BatchHandler != nil {
		m.cfg.BatchHandler(tx, src, pkts)
		return
	}
	if m.cfg.Handler != nil {
		for k := range pkts {
			m.cfg.Handler(tx, src, pkts[k].Hdr, pkts[k].HdrRaw, pkts[k].Payload)
		}
	}
}

// msg1Reply caches the responder's answer to the most recent msg1 from one
// peer, keyed by a digest of the msg1 body. Initiators retransmit msg1 on a
// timer until msg2 arrives, so the responder routinely sees the same msg1
// more than once. Running handshake.Respond again for a retransmission
// would draw a fresh ephemeral — new keys — and re-establish the pipe with
// a secret the initiator never learns (the initiator drops any msg2 after
// its first Complete), silently poisoning a pipe the first exchange already
// brought up. The cache makes msg1 idempotent: a repeat gets the identical
// msg2 back (covering a lost msg2) and leaves the established keys alone. A
// msg1 with a new digest is a fresh handshake attempt (e.g. peer restart)
// and replaces the entry.
type msg1Reply struct {
	digest [sha256.Size]byte
	msg2   []byte
}

func (m *Manager) handleMsg1(src wire.Addr, body []byte) {
	digest := sha256.Sum256(body)
	m.mu.Lock()
	// Simultaneous open: if we have a pending handshake to src and our
	// address is lower, we are the designated initiator — ignore their
	// msg1; they will answer ours.
	if _, isPending := m.pending[src]; isPending && m.local.Less(src) {
		m.mu.Unlock()
		return
	}
	if prev, ok := m.respCache[src]; ok && prev.digest == digest {
		m.mu.Unlock()
		_ = m.cfg.Transport.Send(wire.Datagram{Dst: src, Payload: prev.msg2})
		return
	}
	m.mu.Unlock()

	msg2, res, err := handshake.Respond(m.cfg.Identity, m.local, src, body)
	if err != nil {
		return // malformed or forged; drop silently like any bad packet
	}
	if !m.cfg.Authorize(src, res.PeerIdentity) {
		return
	}
	out := append([]byte{byte(wire.FrameHandshake2)}, msg2...)
	// Install, then reply: the moment msg2 is on the wire the initiator may
	// return from Connect and traffic for it may reach this node's other
	// goroutines, which must find the pipe. A reply that fails to send leaves
	// the pipe up — the initiator retransmits msg1 and respCache answers it.
	if m.establish(src, res, &msg1Reply{digest: digest, msg2: out}) {
		_ = m.cfg.Transport.Send(wire.Datagram{Dst: src, Payload: out})
	}
}

func (m *Manager) handleMsg2(src wire.Addr, body []byte) {
	m.mu.Lock()
	pc, ok := m.pending[src]
	m.mu.Unlock()
	if !ok {
		return
	}
	res, err := pc.hs.Complete(body)
	if err != nil {
		return
	}
	if !m.cfg.Authorize(src, res.PeerIdentity) {
		m.mu.Lock()
		if m.pending[src] == pc {
			delete(m.pending, src)
			pc.err = ErrUnauthorized
			close(pc.done)
		}
		m.mu.Unlock()
		return
	}
	m.establish(src, res, nil)
}

// peer returns the established peer for addr from the copy-on-write table,
// or nil. Lock-free: the data-path readers never contend with each other.
func (m *Manager) peer(addr wire.Addr) *peer {
	return (*m.peers.Load())[addr]
}

// setPeer clones the peer table with addr set (p != nil) or removed
// (p == nil). Must be called with m.mu held.
func (m *Manager) setPeer(addr wire.Addr, p *peer) {
	old := *m.peers.Load()
	next := make(peerMap, len(old)+1)
	for a, v := range old {
		next[a] = v
	}
	if p == nil {
		delete(next, addr)
	} else {
		next[addr] = p
	}
	m.peers.Store(&next)
}

// establish installs the pipe and wakes any Connect waiters. A responder
// passes the reply it is about to send, which is cached in the same critical
// section; it gets false back, and must not reply, when a Connect of the
// designated initiator (the lower address) began while the reply was being
// computed — the simultaneous-open tie-break of handleMsg1, taken again where
// it is atomic with the install, so the two ends cannot settle on different
// handshakes.
func (m *Manager) establish(addr wire.Addr, res *handshake.Result, reply *msg1Reply) bool {
	crypto, err := psp.NewPipeCrypto(res.Master, res.Initiator, res.BaseSPI)
	if err != nil {
		return false
	}
	p := &peer{
		addr:      addr,
		identity:  res.PeerIdentity,
		crypto:    crypto,
		up:        m.cfg.Clock.Now(),
		master:    res.Master,
		initiator: res.Initiator,
		baseSPI:   res.BaseSPI,
	}
	p.lastRx.Store(p.up.UnixNano())
	m.mu.Lock()
	pc, isPending := m.pending[addr]
	if reply != nil {
		if isPending && m.local.Less(addr) {
			m.mu.Unlock()
			return false
		}
		m.respCache[addr] = *reply
	}
	m.setPeer(addr, p)
	if isPending {
		delete(m.pending, addr)
		close(pc.done)
	}
	m.mu.Unlock()
	if m.cfg.OnPeerUp != nil {
		m.cfg.OnPeerUp(addr, res.PeerIdentity)
	}
	return true
}

// keepaliveLoop probes idle pipes and tears down dead ones. It ticks at
// half the keepalive interval on the configured clock, so a Manual clock
// drives liveness deterministically in tests.
func (m *Manager) keepaliveLoop() {
	defer m.wg.Done()
	tick := m.cfg.KeepaliveInterval / 2
	if tick <= 0 {
		tick = m.cfg.KeepaliveInterval
	}
	for {
		select {
		case <-m.done:
			return
		case <-m.cfg.Clock.After(tick):
		}
		now := m.cfg.Clock.Now()
		for addr, p := range *m.peers.Load() {
			idle := now.Sub(time.Unix(0, p.lastRx.Load()))
			switch {
			case idle >= m.cfg.DeadAfter:
				m.peerDead(addr, p)
			case idle >= m.cfg.KeepaliveInterval:
				m.keepalivesSent.Add(1)
				probe := wire.ILPHeader{Service: wire.SvcPipeProbe}
				_ = m.Send(addr, &probe, nil)
			}
		}
	}
}

// peerDead removes a pipe that failed liveness, notifies OnPeerDown, and
// (when configured) starts the automatic re-establishment loop.
func (m *Manager) peerDead(addr wire.Addr, p *peer) {
	m.mu.Lock()
	if m.peer(addr) != p {
		// Already replaced or removed by a concurrent path.
		m.mu.Unlock()
		return
	}
	m.setPeer(addr, nil)
	m.mu.Unlock()
	m.peersLost.Add(1)
	if m.cfg.OnPeerDown != nil {
		m.cfg.OnPeerDown(addr, p.identity)
	}
	if m.cfg.Reestablish {
		m.reestablishAsync(addr)
	}
}

// reestablishAsync starts (at most one) background re-handshake loop for
// addr.
func (m *Manager) reestablishAsync(addr wire.Addr) {
	m.mu.Lock()
	if m.closed || m.redialing[addr] {
		m.mu.Unlock()
		return
	}
	m.redialing[addr] = true
	m.wg.Add(1)
	m.mu.Unlock()
	go m.reestablish(addr)
}

// reestablish re-handshakes addr with capped exponential backoff between
// rounds until the pipe is up (by any path) or the manager closes. The
// fresh handshake derives a new master secret, so the re-established
// pipe's key epochs restart from zero.
func (m *Manager) reestablish(addr wire.Addr) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		delete(m.redialing, addr)
		m.mu.Unlock()
	}()
	for round := 0; ; round++ {
		if m.HasPeer(addr) {
			m.reestablished.Add(1)
			return
		}
		err := m.Connect(addr)
		if err == nil {
			m.reestablished.Add(1)
			return
		}
		if errors.Is(err, ErrManagerClosed) {
			return
		}
		// Each Connect already retried with backoff; wait a further
		// jittered max-backoff round before trying again so a long
		// partition doesn't turn into a handshake flood.
		select {
		case <-m.cfg.Clock.After(m.jitter(m.cfg.HandshakeBackoffMax)):
		case <-m.done:
			return
		}
	}
}

// backoff returns the jittered wait after handshake attempt number
// attempt (0-based): HandshakeTimeout doubled per attempt, capped at
// HandshakeBackoffMax, then jittered to [d/2, d).
func (m *Manager) backoff(attempt int) time.Duration {
	return m.retry.Attempt(attempt)
}

// jitter maps d onto a uniformly random duration in [d/2, d).
func (m *Manager) jitter(d time.Duration) time.Duration {
	return m.retry.Jitter(d)
}

// Stats returns a snapshot of manager-wide pipe metrics.
func (m *Manager) Stats() Stats {
	return Stats{
		HandshakeAttempts: m.handshakeAttempts.Load(),
		HandshakeFailures: m.handshakeFailures.Load(),
		KeepalivesSent:    m.keepalivesSent.Load(),
		KeepalivesRcvd:    m.keepalivesRcvd.Load(),
		PeersLost:         m.peersLost.Load(),
		Reestablished:     m.reestablished.Load(),
		TxBatches:         m.txBatches.Load(),
		TxBatchedPackets:  m.txBatchedPackets.Load(),
		TxFlushDrops:      m.txFlushDrops.Load(),
	}
}

// Connect establishes (or returns) a pipe to addr, blocking until the
// handshake completes or times out.
func (m *Manager) Connect(addr wire.Addr) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrManagerClosed
	}
	if m.peer(addr) != nil {
		m.mu.Unlock()
		return nil
	}
	if pc, ok := m.pending[addr]; ok {
		m.mu.Unlock()
		<-pc.done
		return pc.err
	}
	hs, err := handshake.Initiate(m.cfg.Identity, m.local, addr)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	pc := &pendingConn{hs: hs, done: make(chan struct{})}
	m.pending[addr] = pc
	m.mu.Unlock()

	msg1 := append([]byte{byte(wire.FrameHandshake1)}, hs.Msg1()...)
	for attempt := 0; attempt < m.cfg.HandshakeRetries; attempt++ {
		m.handshakeAttempts.Add(1)
		if err := m.cfg.Transport.Send(wire.Datagram{Dst: addr, Payload: msg1}); err != nil {
			// Keep retrying: the peer may attach shortly (e.g. SN restart).
			if errors.Is(err, netsim.ErrClosed) {
				m.failPending(addr, pc, err)
				return err
			}
		}
		// Exponential backoff with jitter between retransmissions, so a
		// crowd of nodes re-dialing a recovered peer doesn't synchronize
		// into repeated handshake bursts.
		select {
		case <-pc.done:
			return pc.err
		case <-m.cfg.Clock.After(m.backoff(attempt)):
		case <-m.done:
			m.failPending(addr, pc, ErrManagerClosed)
			return ErrManagerClosed
		}
	}
	m.failPending(addr, pc, ErrHandshakeTimeout)
	if pc.err != nil {
		m.handshakeFailures.Add(1)
	}
	return pc.err
}

func (m *Manager) failPending(addr wire.Addr, pc *pendingConn, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.pending[addr]; ok && cur == pc {
		delete(m.pending, addr)
		pc.err = err
		close(pc.done)
	}
	// If the pipe came up concurrently (pc.done already closed by
	// establish), pc.err stays nil and callers see success.
}

// HasPeer reports whether a pipe to addr is established.
func (m *Manager) HasPeer(addr wire.Addr) bool {
	return m.peer(addr) != nil
}

// Peers lists established pipes.
func (m *Manager) Peers() []PeerInfo {
	pm := *m.peers.Load()
	out := make([]PeerInfo, 0, len(pm))
	for _, p := range pm {
		out = append(out, PeerInfo{
			Addr: p.addr, Identity: p.identity, Established: p.up,
			TxPackets: p.txPackets.Load(), RxPackets: p.rxPackets.Load(),
			TxBytes: p.txBytes.Load(), RxBytes: p.rxBytes.Load(),
		})
	}
	return out
}

// PeerIdentity returns the verified identity of an established peer.
func (m *Manager) PeerIdentity(addr wire.Addr) (ed25519.PublicKey, bool) {
	p := m.peer(addr)
	if p == nil {
		return nil, false
	}
	return p.identity, true
}

// Send encodes hdr and sends it with payload over the pipe to dst. The
// header is encoded into the same pooled buffer the packet is sealed in.
func (m *Manager) Send(dst wire.Addr, hdr *wire.ILPHeader, payload []byte) error {
	sb := m.sealBufs.Get().(*sealBuf)
	enc, err := sb.encodeHeader(hdr)
	if err != nil {
		m.sealBufs.Put(sb)
		return err
	}
	return m.sealAndSend(sb, dst, enc, payload)
}

// SendHeaderBytes sends an already-encoded ILP header with payload over the
// pipe to dst. This is the forwarding fast path used by the pipe-terminus,
// which re-seals decrypted header bytes without re-parsing them. The framed
// output packet is built in a pooled buffer, so the steady state performs
// no allocations here; the transport copies it for the receiver (wire.RxCopy).
func (m *Manager) SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error {
	return m.sealAndSend(m.sealBufs.Get().(*sealBuf), dst, hdrBytes, payload)
}

// sealAndSend seals one packet into sb, hands it to the transport, and
// returns sb to the pool.
func (m *Manager) sealAndSend(sb *sealBuf, dst wire.Addr, hdrBytes, payload []byte) error {
	defer m.sealBufs.Put(sb)
	p := m.peer(dst)
	if p == nil {
		return fmt.Errorf("%w: %s", ErrNoPipe, dst)
	}
	buf := append(sb.buf[:0], byte(wire.FrameILP))
	sealed, err := p.crypto.TX.SealScratch(&sb.scratch, buf, hdrBytes, payload)
	if err != nil {
		sb.buf = buf
		return err
	}
	sb.buf = sealed
	// Transports must not retain dg.Payload after Send returns (netsim
	// copies it into the receiver's queue; UDP encodes before writing), so
	// the buffer can go straight back into the pool.
	if err := m.cfg.Transport.Send(wire.Datagram{Dst: dst, Payload: sealed}); err != nil {
		return err
	}
	p.txPackets.Add(1)
	p.txBytes.Add(uint64(len(sealed)))
	return nil
}

// RotateAll advances the sending key epoch on every pipe (§4 key rotation).
func (m *Manager) RotateAll() error {
	for _, p := range *m.peers.Load() {
		if err := p.crypto.TX.Rotate(); err != nil {
			return err
		}
	}
	return nil
}

// DropPeer tears down the pipe to addr (used by failure-injection tests
// and by Redial).
func (m *Manager) DropPeer(addr wire.Addr) {
	m.mu.Lock()
	m.setPeer(addr, nil)
	m.mu.Unlock()
}

// Redial discards any existing pipe state for addr and performs a fresh
// handshake. Use when the peer restarted: its old pipe keys are gone, so
// traffic sealed with the previous master secret would be dropped.
func (m *Manager) Redial(addr wire.Addr) error {
	m.DropPeer(addr)
	return m.Connect(addr)
}

// Close shuts down the manager and its transport.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for addr, pc := range m.pending {
		pc.err = ErrManagerClosed
		close(pc.done)
		delete(m.pending, addr)
	}
	m.mu.Unlock()
	close(m.done)
	err := m.cfg.Transport.Close()
	m.wg.Wait()
	return err
}
