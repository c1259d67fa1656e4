package pipe

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
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

// Engine is the pipe stack: one transport attachment, one set of RX workers,
// and one keepalive sweep serving one or many local identities (endpoints).
// Pipes are keyed by (local, remote), so an SN or a standalone host is an
// engine with a single endpoint (New), and 10^5–10^6 weightless lite hosts
// share one engine on a multiplexing transport with a goroutine budget that is
// O(workers), independent of endpoint count.
//
// Everything on a pipe is real: handshakes run the transcript-bound exchange
// (addresses are part of the transcript, so each endpoint's pipes carry its
// own identity), PSP seal/open state and epoch rotation are per pipe, and
// RebindPeer implements the host side of SvcPipeMove. The peer on the far
// side cannot tell a lite endpoint from an SN.
//
// Concurrency: the peer table is sharded across RWMutex-guarded maps (a
// copy-on-write map would make every establish O(peers), and boxing struct
// keys into a sync.Map would allocate on the data path). Readers take only
// the shard RLock; all writers serialize on Engine.mu first and then take
// shard locks, so multi-shard operations (RebindPeer) never deadlock and
// check-then-act sequences are atomic with respect to other writers.
type Engine struct {
	cfg   EngineConfig
	telem *telemetry.Registry

	shards []peerShard

	mu        sync.Mutex // serializes writers: pending, redialing, respCache, closed, peer-table writes
	pending   map[pipeKey]*pendingConn
	redialing map[pipeKey]bool
	respCache map[pipeKey]msg1Reply
	respFIFO  []pipeKey // insertion order for bounded eviction
	closed    bool

	epMu      sync.RWMutex
	endpoints map[wire.Addr]*endpoint

	retry *Backoff // handshake/redial backoff with deterministic jitter

	sealBufs sync.Pool

	peerCount     atomic.Int64
	endpointCount atomic.Int64

	// Pipe metrics live in the owner's telemetry registry; these handles
	// are the hot-path instruments (atomic counters, two histograms).
	handshakeAttempts *telemetry.Counter
	handshakeFailures *telemetry.Counter
	keepalivesSent    *telemetry.Counter
	keepalivesRcvd    *telemetry.Counter
	peersLost         *telemetry.Counter
	reestablished     *telemetry.Counter
	txBatches         *telemetry.Counter
	txBatchedPackets  *telemetry.Counter
	txFlushDrops      *telemetry.Counter
	rxNoPipe          *telemetry.Counter
	rxOpenErrors      *telemetry.Counter
	rxMalformed       *telemetry.Counter
	flushBatchSize    *telemetry.Histogram
	rxOpenBatchSize   *telemetry.Histogram

	done chan struct{}
	wg   sync.WaitGroup
}

// EngineTransport is the engine's attachment: like netsim.Transport but
// without a required LocalAddr — the engine stamps Datagram.Src per send, so
// one transport can carry every endpoint's traffic (netsim.Mux implements
// it). A netsim.Transport is an EngineTransport with one address.
//
// The engine reads a transport that implements netsim.ShardedReceiver as
// one receive queue per RX worker, each worker ranging over its own; one
// that does not is read through Receive by a single worker.
type EngineTransport interface {
	// Send transmits dg; dg.Src must already be set to the sending
	// endpoint's address. The transport must not retain dg.Payload.
	Send(dg wire.Datagram) error
	Receive() <-chan wire.Datagram
	Close() error
}

// EngineConfig configures an Engine. Identity, authorization, and packet
// handling are per endpoint (EndpointConfig).
type EngineConfig struct {
	Transport EngineTransport
	// Clock defaults to the real clock.
	Clock clock.Clock
	// HandshakeTimeout is the retransmission interval of the FIRST msg1
	// attempt (default 250ms). Later attempts back off exponentially with
	// jitter, capped at 8×HandshakeTimeout.
	HandshakeTimeout time.Duration
	// HandshakeRetries is the number of msg1 transmissions before giving
	// up (default 5).
	HandshakeRetries int
	// KeepaliveInterval, when nonzero, enables pipe liveness across every
	// pipe of every endpoint: a sealed probe is sent on any pipe idle longer
	// than the interval, and a pipe with no authenticated inbound traffic
	// for DeadAfter is torn down (the owning endpoint's OnPeerDown fires).
	KeepaliveInterval time.Duration
	// DeadAfter is the idle window after which a peer is declared dead
	// (default 4×KeepaliveInterval).
	DeadAfter time.Duration
	// Reestablish re-handshakes dead pipes automatically with capped
	// exponential backoff until the pipe is back, its endpoint is removed,
	// or the engine closes. The new pipe has a fresh master secret, so its
	// key epochs restart. Without it a dead pipe stays down until someone
	// calls Connect again.
	Reestablish bool
	// RxWorkers is the number of receive-pipeline workers (default
	// GOMAXPROCS). The transport queues each datagram on the worker that
	// owns its pipe (netsim.ShardedReceiver, wire.RxShard), so one pipe's
	// traffic stays on one worker, in order, and a datagram is handed off
	// once, from the transport to its worker. A transport that cannot shard
	// gets one worker.
	RxWorkers int
	// Telemetry is the registry the pipe instruments are created in,
	// normally the owning node's registry so pipe metrics appear in the
	// node's snapshot. Nil creates a private registry.
	Telemetry *telemetry.Registry
}

// EndpointConfig describes one local identity on an Engine.
type EndpointConfig struct {
	// Addr is the endpoint's local address; pipes are keyed by it.
	Addr wire.Addr
	// Identity signs this endpoint's handshakes.
	Identity handshake.Identity
	// Handler receives the endpoint's decrypted inbound packets one at a
	// time (see PacketHandler for ownership). The engine wraps it into a
	// BatchPacketHandler that calls it once per packet of each run.
	Handler PacketHandler
	// BatchHandler, when set, takes precedence over Handler: each decrypted
	// same-pipe run of a receive batch is delivered as one call, letting the
	// consumer amortize per-packet work (e.g. run-coalesced decision-cache
	// lookups) across the run.
	BatchHandler BatchPacketHandler
	// Authorize defaults to accept-all.
	Authorize AuthorizePeer
	// OnPeerUp / OnPeerDown are optional. OnPeerDown only fires from the
	// keepalive sweep (KeepaliveInterval > 0) and must not block.
	OnPeerUp   PeerUpHandler
	OnPeerDown PeerDownHandler
}

// pipeKey names one pipe in the engine: local endpoint × remote peer.
type pipeKey struct {
	local  wire.Addr
	remote wire.Addr
}

// engineShards is the peer-table shard count of a shared engine. Power of
// two; sized so that with ~10^6 pipes each shard map holds ~4k entries and
// writer contention during fleet bring-up stays low.
const engineShards = 256

// soloShards is the peer-table shard count of a one-endpoint engine (New):
// an SN's or a host's pipes number in the thousands at most, and 256 shards
// per node would be most of the node's pipe-layer heap.
const soloShards = 16

// respCacheMax bounds the msg1-idempotency cache. Entries are evicted FIFO —
// retransmissions arrive within the handshake-retry window, so only the
// recent tail matters.
const respCacheMax = 8192

// backoffCap is the handshake backoff ceiling, in HandshakeTimeouts.
const backoffCap = 8

// rxDispatchBatch caps how many queued datagrams a worker gathers before
// dispatching them as one batch. It matches the transports' vectored
// receive sizing, so one recvmmsg burst flows through one crypto pass.
const rxDispatchBatch = 32

// peerShard is one stripe of the peer table. Its map is made on first
// install, so an engine's empty shards cost only their lock.
type peerShard struct {
	mu sync.RWMutex
	m  map[pipeKey]*peer
}

// peer is one established pipe: its keys, the handshake-derived material
// retained so the pipe can be exported to a sibling node during a drain
// (ExportPeer) without a fresh handshake, its traffic counters, and the
// owning endpoint, resolved at establish time so the data path never looks
// endpoints up.
type peer struct {
	key      pipeKey
	identity ed25519.PublicKey
	crypto   *psp.PipeCrypto
	up       time.Time

	master    cryptutil.Key
	initiator bool
	baseSPI   uint32

	ep *endpoint

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
	ep   *endpoint
	done chan struct{} // closed when the pipe (by any path) is up
	err  error
}

type endpoint struct {
	cfg EndpointConfig
}

// msg1Reply caches the responder's answer to the most recent msg1 on one
// pipe, keyed by a digest of the msg1 body. Initiators retransmit msg1 on a
// timer until msg2 arrives, so the responder routinely sees the same msg1
// more than once. Running handshake.Respond again for a retransmission would
// draw a fresh ephemeral — new keys — and re-establish the pipe with a secret
// the initiator never learns (the initiator drops any msg2 after its first
// Complete), silently poisoning a pipe the first exchange already brought up.
// The cache makes msg1 idempotent: a repeat gets the identical msg2 back
// (covering a lost msg2) and leaves the established keys alone. A msg1 with a
// new digest is a fresh handshake attempt (e.g. peer restart) and replaces
// the entry.
type msg1Reply struct {
	digest [sha256.Size]byte
	msg2   []byte
}

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

// rxRun is a worker's reusable batch-dispatch scratch: the gathered
// datagrams, the per-run sealed bodies and open results, and the decoded
// packets handed to the handler.
type rxRun struct {
	dgs     []wire.Datagram
	bodies  [][]byte
	results []psp.OpenResult
	pkts    []RxPacket
}

// NewEngine creates an Engine and starts its receive pipeline.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return newEngine(cfg, engineShards)
}

func newEngine(cfg EngineConfig, shards int) (*Engine, error) {
	if cfg.Transport == nil {
		return nil, errors.New("pipe: EngineConfig.Transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 250 * time.Millisecond
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
	// Seed retry jitter from the transport's own address, so a simulation
	// replays the same schedule while distinct nodes draw decorrelated
	// delays. A multiplexing transport has no single address; its engine
	// seeds from none.
	var seedFrom []byte
	if t, ok := cfg.Transport.(interface{ LocalAddr() wire.Addr }); ok {
		a := t.LocalAddr().As16()
		seedFrom = a[:]
	}
	e := &Engine{
		cfg:       cfg,
		shards:    make([]peerShard, shards),
		pending:   make(map[pipeKey]*pendingConn),
		redialing: make(map[pipeKey]bool),
		respCache: make(map[pipeKey]msg1Reply),
		endpoints: make(map[wire.Addr]*endpoint),
		retry:     NewBackoff(cfg.HandshakeTimeout, backoffCap*cfg.HandshakeTimeout, DeriveSeed(seedFrom)),
		done:      make(chan struct{}),
	}
	e.sealBufs.New = func() any { return new(sealBuf) }
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e.telem = reg
	e.handshakeAttempts = reg.Counter("pipe_handshake_attempts_total")
	e.handshakeFailures = reg.Counter("pipe_handshake_failures_total")
	e.keepalivesSent = reg.Counter("pipe_keepalives_sent_total")
	e.keepalivesRcvd = reg.Counter("pipe_keepalives_rcvd_total")
	e.peersLost = reg.Counter("pipe_peers_lost_total")
	e.reestablished = reg.Counter("pipe_reestablished_total")
	e.txBatches = reg.Counter("pipe_tx_batches_total")
	e.txBatchedPackets = reg.Counter("pipe_tx_batched_packets_total")
	e.txFlushDrops = reg.Counter("pipe_tx_flush_drops_total")
	e.rxNoPipe = reg.Counter("engine_rx_no_pipe_total")
	e.rxOpenErrors = reg.Counter("engine_rx_open_errors_total")
	e.rxMalformed = reg.Counter("engine_rx_malformed_total")
	e.flushBatchSize = reg.Histogram("pipe_tx_flush_batch_size", telemetry.BatchBuckets)
	e.rxOpenBatchSize = reg.Histogram("pipe_rx_open_batch_size", telemetry.BatchBuckets)
	_ = reg.Register(telemetry.NewGaugeFunc("pipe_peers", e.peerCount.Load))
	_ = reg.Register(telemetry.NewGaugeFunc("engine_endpoints", e.endpointCount.Load))
	queues := []<-chan wire.Datagram{cfg.Transport.Receive()}
	if t, ok := cfg.Transport.(netsim.ShardedReceiver); ok {
		queues = t.ReceiveShards(cfg.RxWorkers)
	}
	e.cfg.RxWorkers = len(queues)
	for _, q := range queues {
		e.wg.Add(1)
		go e.consume(q)
	}
	if cfg.KeepaliveInterval > 0 {
		e.wg.Add(1)
		go e.keepaliveLoop()
	}
	return e, nil
}

// Telemetry returns the registry holding the engine's pipe instruments.
func (e *Engine) Telemetry() *telemetry.Registry { return e.telem }

// RxWorkers returns the effective receive fan-out width.
func (e *Engine) RxWorkers() int { return e.cfg.RxWorkers }

// Pipes returns the number of established pipes across all endpoints.
func (e *Engine) Pipes() int { return int(e.peerCount.Load()) }

// AddEndpoint registers a local identity on the engine. It fails if the
// address is already registered.
func (e *Engine) AddEndpoint(cfg EndpointConfig) error {
	_, err := e.addEndpoint(cfg, false)
	return err
}

// Attach registers a local identity like AddEndpoint and returns its
// handle. Closing the handle removes the endpoint; the engine keeps serving
// its other endpoints.
func (e *Engine) Attach(cfg EndpointConfig) (*Manager, error) {
	return e.addEndpoint(cfg, false)
}

// addEndpoint registers cfg and returns the endpoint's one handle. owns
// marks the handle of an engine's only endpoint (New): closing it closes the
// engine.
func (e *Engine) addEndpoint(cfg EndpointConfig, owns bool) (*Manager, error) {
	if !cfg.Addr.IsValid() {
		return nil, errors.New("pipe: EndpointConfig.Addr is required")
	}
	if cfg.Authorize == nil {
		cfg.Authorize = func(wire.Addr, ed25519.PublicKey) bool { return true }
	}
	if h := cfg.Handler; cfg.BatchHandler == nil && h != nil {
		cfg.BatchHandler = func(tx Sender, src wire.Addr, pkts []RxPacket) {
			for k := range pkts {
				h(tx, src, pkts[k].Hdr, pkts[k].HdrRaw, pkts[k].Payload)
			}
		}
	}
	ep := &endpoint{cfg: cfg}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrManagerClosed
	}
	e.epMu.Lock()
	_, dup := e.endpoints[cfg.Addr]
	if !dup {
		e.endpoints[cfg.Addr] = ep
	}
	e.epMu.Unlock()
	if dup {
		return nil, fmt.Errorf("pipe: endpoint %s already registered", cfg.Addr)
	}
	e.endpointCount.Add(1)
	return &Manager{eng: e, local: cfg.Addr, owns: owns}, nil
}

// RemoveEndpoint unregisters a local identity, tears down its pipes, and
// fails its in-flight handshakes. The remote ends discover the loss through
// their own liveness machinery, exactly as if a standalone host closed.
func (e *Engine) RemoveEndpoint(local wire.Addr) {
	e.mu.Lock()
	e.epMu.Lock()
	_, ok := e.endpoints[local]
	delete(e.endpoints, local)
	e.epMu.Unlock()
	if ok {
		e.endpointCount.Add(-1)
	}
	for key, pc := range e.pending {
		if key.local == local {
			delete(e.pending, key)
			pc.err = ErrManagerClosed
			close(pc.done)
		}
	}
	var gone []pipeKey
	e.eachPeer(local, func(p *peer) { gone = append(gone, p.key) })
	for _, key := range gone {
		e.setPeer(key, nil)
	}
	e.mu.Unlock()
}

func (e *Engine) endpoint(local wire.Addr) *endpoint {
	e.epMu.RLock()
	ep := e.endpoints[local]
	e.epMu.RUnlock()
	return ep
}

// pipeShardIndex maps a pipe key onto [0, n), n a power of two: each
// address half is multiplied by its own odd constant, and an avalanche mix
// spreads the sum, so sequentially allocated lab addresses still land
// evenly. It runs on every send, so it works a word, not a byte, at a time.
func pipeShardIndex(local, remote wire.Addr, n int) int {
	a, b := local.As16(), remote.As16()
	h := binary.BigEndian.Uint64(a[:8])*0x9e3779b97f4a7c15 ^
		binary.BigEndian.Uint64(a[8:])*0xc2b2ae3d27d4eb4f ^
		binary.BigEndian.Uint64(b[:8])*0x165667b19e3779f9 ^
		binary.BigEndian.Uint64(b[8:])*0xd6e8feb86659fd93
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h & uint64(n-1))
}

func (e *Engine) shard(key pipeKey) *peerShard {
	return &e.shards[pipeShardIndex(key.local, key.remote, len(e.shards))]
}

// peer returns the established pipe for key, or nil. Readers take only the
// shard read-lock.
func (e *Engine) peer(key pipeKey) *peer {
	sh := e.shard(key)
	sh.mu.RLock()
	p := sh.m[key]
	sh.mu.RUnlock()
	return p
}

// setPeer installs (p != nil) or removes (p == nil) the pipe for key and
// maintains the pipe gauge. Callers must hold e.mu.
func (e *Engine) setPeer(key pipeKey, p *peer) {
	sh := e.shard(key)
	sh.mu.Lock()
	_, had := sh.m[key]
	if p == nil {
		delete(sh.m, key)
	} else {
		if sh.m == nil {
			sh.m = make(map[pipeKey]*peer)
		}
		sh.m[key] = p
	}
	sh.mu.Unlock()
	switch {
	case p != nil && !had:
		e.peerCount.Add(1)
	case p == nil && had:
		e.peerCount.Add(-1)
	}
}

// eachPeer calls fn for every established pipe of local — of every
// endpoint when local is the zero address — under its shard's read lock.
func (e *Engine) eachPeer(local wire.Addr, fn func(*peer)) {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for key, p := range sh.m {
			if key.local == local || !local.IsValid() {
				fn(p)
			}
		}
		sh.mu.RUnlock()
	}
}

// consume is the body every receive worker runs over its own transport
// queue, until the transport closes it: gather whatever the queue has ready
// (up to rxDispatchBatch), push the whole batch through one crypto pass, and
// let egress coalesce while more input is immediately available. The flush
// policy is NAPI-style adaptive — the inner drain loop keeps gathering and
// dispatching as long as the queue has a datagram ready, and the coalescer
// flushes the moment it does not. At low load every packet therefore
// flushes before the worker blocks again (no added latency); under
// backpressure receive batches grow toward rxDispatchBatch and egress
// batches toward the per-destination cap.
func (e *Engine) consume(ch <-chan wire.Datagram) {
	defer e.wg.Done()
	var scratch psp.Scratch
	var rb rxRun
	eg := e.newEgress()
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
					e.dispatchBatch(eg, &rb, &scratch)
					rb.dgs = rb.dgs[:0]
				}
			default:
				break drain
			}
		}
		if len(rb.dgs) > 0 {
			e.dispatchBatch(eg, &rb, &scratch)
			rb.dgs = rb.dgs[:0]
		}
		eg.flushAll()
		if closed {
			return
		}
	}
}

// dispatchBatch walks one gathered batch in arrival order: dg.Dst names the
// endpoint and dg.Src the remote. Handshake frames are handled inline, and
// each maximal run of consecutive ILP datagrams on one pipe is opened and
// delivered as a unit through the worker's egress eg.
func (e *Engine) dispatchBatch(eg *egress, rb *rxRun, scratch *psp.Scratch) {
	dgs := rb.dgs
	for i := 0; i < len(dgs); {
		dg := &dgs[i]
		if len(dg.Payload) < 1 {
			i++
			continue
		}
		switch wire.FrameType(dg.Payload[0]) {
		case wire.FrameHandshake1:
			e.handleMsg1(dg.Dst, dg.Src, dg.Payload[1:])
			i++
		case wire.FrameHandshake2:
			e.handleMsg2(dg.Dst, dg.Src, dg.Payload[1:])
			i++
		case wire.FrameILP:
			j := i + 1
			for j < len(dgs) && dgs[j].Src == dg.Src && dgs[j].Dst == dg.Dst &&
				len(dgs[j].Payload) >= 1 &&
				wire.FrameType(dgs[j].Payload[0]) == wire.FrameILP {
				j++
			}
			e.handleILPRun(eg, pipeKey{local: dg.Dst, remote: dg.Src}, dgs[i:j], rb, scratch)
			i = j
		default:
			i++
		}
	}
}

// handleILPRun opens one same-pipe run of sealed ILP packets with a single
// OpenBatch pass and delivers the survivors to the endpoint's BatchHandler
// as one call. Per-packet failures (auth, replay, truncation, a header that
// authenticates but does not decode) drop only the offending packet. Each
// opened header is copied back into the datagram, over its own ciphertext,
// and decoded there: the handler owns one buffer holding header and payload
// alike, and the worker's open scratch is free again before it returns.
func (e *Engine) handleILPRun(eg *egress, key pipeKey, dgs []wire.Datagram, rb *rxRun, scratch *psp.Scratch) {
	n := len(dgs)
	p := e.peer(key)
	// What never reaches a handler — no pipe, a datagram that does not open
	// or decode, a probe, a probe ack — is consumed here, and its buffer goes
	// back to the pool: a flood of forged packets makes no garbage.
	if p == nil {
		e.rxNoPipe.Add(uint64(n))
		for k := range dgs {
			wire.RxRelease(dgs[k].Payload)
		}
		return
	}
	e.rxOpenBatchSize.Observe(uint64(n))
	bodies := rb.bodies[:0]
	for k := range dgs {
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
	for k := range dgs {
		if results[k].Err != nil {
			e.rxOpenErrors.Add(1)
			wire.RxRelease(dgs[k].Payload)
			continue
		}
		hdrRaw := bodies[k][results[k].HdrAt:]
		hdrRaw = hdrRaw[:copy(hdrRaw, results[k].Hdr)]
		var hdr wire.ILPHeader
		if _, err := hdr.DecodeFromBytes(hdrRaw); err != nil {
			e.rxMalformed.Add(1)
			wire.RxRelease(dgs[k].Payload)
			continue
		}
		okPkts++
		okBytes += uint64(len(bodies[k]))
		switch hdr.Service {
		case wire.SvcPipeProbe:
			// Liveness probe: answer through the pipe so the ack proves we
			// still hold the keys. Never dispatched to the handler.
			e.keepalivesRcvd.Add(1)
			ack := wire.ILPHeader{Service: wire.SvcPipeProbeAck, Conn: hdr.Conn}
			_ = e.Send(key.local, key.remote, &ack, nil)
			wire.RxRelease(dgs[k].Payload)
			continue
		case wire.SvcPipeProbeAck:
			wire.RxRelease(dgs[k].Payload)
			continue // lastRx refreshed below with the rest of the run
		}
		pkts = append(pkts, RxPacket{Hdr: hdr, HdrRaw: hdrRaw, Payload: results[k].Payload, buf: dgs[k].Payload})
	}
	rb.pkts = pkts
	if okPkts > 0 {
		p.rxPackets.Add(okPkts)
		p.rxBytes.Add(okBytes)
		if e.cfg.KeepaliveInterval > 0 {
			p.lastRx.Store(e.cfg.Clock.Now().UnixNano())
		}
	}
	if len(pkts) == 0 {
		return
	}
	if h := p.ep.cfg.BatchHandler; h != nil {
		eg.local = key.local
		h(eg, key.remote, pkts)
	}
}

func (e *Engine) handleMsg1(local, remote wire.Addr, body []byte) {
	ep := e.endpoint(local)
	if ep == nil {
		return
	}
	key := pipeKey{local: local, remote: remote}
	digest := sha256.Sum256(body)
	e.mu.Lock()
	// Simultaneous open: if we have a pending handshake to remote and our
	// address is lower, we are the designated initiator — ignore their
	// msg1; they will answer ours.
	if _, isPending := e.pending[key]; isPending && local.Less(remote) {
		e.mu.Unlock()
		return
	}
	if prev, ok := e.respCache[key]; ok && prev.digest == digest {
		e.mu.Unlock()
		_ = e.cfg.Transport.Send(wire.Datagram{Src: local, Dst: remote, Payload: prev.msg2})
		return
	}
	e.mu.Unlock()

	// Respond with the endpoint's own identity; addresses are bound into
	// the transcript, so local must be the address the msg1 was sent to.
	msg2, res, err := handshake.Respond(ep.cfg.Identity, local, remote, body)
	if err != nil {
		return // malformed or forged; drop silently like any bad packet
	}
	if !ep.cfg.Authorize(remote, res.PeerIdentity) {
		return
	}
	out := append([]byte{byte(wire.FrameHandshake2)}, msg2...)
	// Install, then reply: the moment msg2 is on the wire the initiator may
	// return from Connect and traffic for it may reach this node's other
	// goroutines, which must find the pipe. A reply that fails to send leaves
	// the pipe up — the initiator retransmits msg1 and respCache answers it.
	if e.establish(key, ep, res, &msg1Reply{digest: digest, msg2: out}) {
		_ = e.cfg.Transport.Send(wire.Datagram{Src: local, Dst: remote, Payload: out})
	}
}

func (e *Engine) handleMsg2(local, remote wire.Addr, body []byte) {
	key := pipeKey{local: local, remote: remote}
	e.mu.Lock()
	pc, ok := e.pending[key]
	e.mu.Unlock()
	if !ok {
		return
	}
	res, err := pc.hs.Complete(body)
	if err != nil {
		return
	}
	if !pc.ep.cfg.Authorize(remote, res.PeerIdentity) {
		e.mu.Lock()
		if e.pending[key] == pc {
			delete(e.pending, key)
			pc.err = ErrUnauthorized
			close(pc.done)
		}
		e.mu.Unlock()
		return
	}
	e.establish(key, pc.ep, res, nil)
}

// establish installs the pipe and wakes any Connect waiters. A responder
// passes the reply it is about to send, which is cached in the same critical
// section; it gets false back, and must not reply, when a Connect of the
// designated initiator (the lower address) began while the reply was being
// computed — the simultaneous-open tie-break of handleMsg1, taken again where
// it is atomic with the install, so the two ends cannot settle on different
// handshakes.
func (e *Engine) establish(key pipeKey, ep *endpoint, res *handshake.Result, reply *msg1Reply) bool {
	crypto, err := psp.NewPipeCrypto(res.Master, res.Initiator, res.BaseSPI)
	if err != nil {
		return false
	}
	p := &peer{
		key:       key,
		identity:  res.PeerIdentity,
		crypto:    crypto,
		up:        e.cfg.Clock.Now(),
		master:    res.Master,
		initiator: res.Initiator,
		baseSPI:   res.BaseSPI,
		ep:        ep,
	}
	p.lastRx.Store(p.up.UnixNano())
	e.mu.Lock()
	pc, isPending := e.pending[key]
	if reply != nil {
		if isPending && key.local.Less(key.remote) {
			e.mu.Unlock()
			return false
		}
		if _, ok := e.respCache[key]; !ok {
			e.respFIFO = append(e.respFIFO, key)
			if len(e.respFIFO) > respCacheMax {
				delete(e.respCache, e.respFIFO[0])
				e.respFIFO = e.respFIFO[1:]
			}
		}
		e.respCache[key] = *reply
	}
	e.setPeer(key, p)
	if isPending {
		delete(e.pending, key)
		close(pc.done)
	}
	e.mu.Unlock()
	if ep.cfg.OnPeerUp != nil {
		ep.cfg.OnPeerUp(key.remote, res.PeerIdentity)
	}
	return true
}

// Connect establishes (or returns) the pipe local→remote, blocking until
// the handshake completes or times out. local must name a registered
// endpoint.
func (e *Engine) Connect(local, remote wire.Addr) error {
	ep := e.endpoint(local)
	if ep == nil {
		return fmt.Errorf("pipe: no endpoint %s on engine", local)
	}
	key := pipeKey{local: local, remote: remote}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrManagerClosed
	}
	if e.peer(key) != nil {
		e.mu.Unlock()
		return nil
	}
	if pc, ok := e.pending[key]; ok {
		e.mu.Unlock()
		<-pc.done
		return pc.err
	}
	hs, err := handshake.Initiate(ep.cfg.Identity, local, remote)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	pc := &pendingConn{hs: hs, ep: ep, done: make(chan struct{})}
	e.pending[key] = pc
	e.mu.Unlock()

	msg1 := append([]byte{byte(wire.FrameHandshake1)}, hs.Msg1()...)
	for attempt := 0; attempt < e.cfg.HandshakeRetries; attempt++ {
		e.handshakeAttempts.Add(1)
		// Keep retrying a failed send — the peer may attach shortly (e.g.
		// an SN restart) — unless the transport itself is gone.
		if err := e.cfg.Transport.Send(wire.Datagram{Src: local, Dst: remote, Payload: msg1}); errors.Is(err, netsim.ErrClosed) {
			e.failPending(key, pc, err)
			return err
		}
		// Exponential backoff with jitter between retransmissions, so a
		// crowd of nodes re-dialing a recovered peer doesn't synchronize
		// into repeated handshake bursts.
		select {
		case <-pc.done:
			return pc.err
		case <-e.cfg.Clock.After(e.retry.Attempt(attempt)):
		case <-e.done:
			e.failPending(key, pc, ErrManagerClosed)
			return ErrManagerClosed
		}
	}
	e.failPending(key, pc, ErrHandshakeTimeout)
	if pc.err != nil {
		e.handshakeFailures.Add(1)
	}
	return pc.err
}

func (e *Engine) failPending(key pipeKey, pc *pendingConn, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.pending[key]; ok && cur == pc {
		delete(e.pending, key)
		pc.err = err
		close(pc.done)
	}
	// If the pipe came up concurrently (pc.done already closed by
	// establish), pc.err stays nil and callers see success.
}

// HasPeer reports whether the pipe local→remote is established.
func (e *Engine) HasPeer(local, remote wire.Addr) bool {
	return e.peer(pipeKey{local: local, remote: remote}) != nil
}

// PeerIdentity returns the verified identity on the pipe local→remote.
func (e *Engine) PeerIdentity(local, remote wire.Addr) (ed25519.PublicKey, bool) {
	p := e.peer(pipeKey{local: local, remote: remote})
	if p == nil {
		return nil, false
	}
	return p.identity, true
}

// Peers lists the established pipes of endpoint local.
func (e *Engine) Peers(local wire.Addr) []PeerInfo {
	out := make([]PeerInfo, 0)
	e.eachPeer(local, func(p *peer) {
		out = append(out, PeerInfo{
			Addr: p.key.remote, Identity: p.identity, Established: p.up,
			TxPackets: p.txPackets.Load(), RxPackets: p.rxPackets.Load(),
			TxBytes: p.txBytes.Load(), RxBytes: p.rxBytes.Load(),
		})
	})
	return out
}

// RotateAll advances the sending key epoch on every pipe of endpoint local
// (§4 key rotation).
func (e *Engine) RotateAll(local wire.Addr) error {
	var err error
	e.eachPeer(local, func(p *peer) {
		if err == nil {
			err = p.crypto.TX.Rotate()
		}
	})
	return err
}

// DropPeer tears down the pipe local→remote.
func (e *Engine) DropPeer(local, remote wire.Addr) {
	e.mu.Lock()
	e.setPeer(pipeKey{local: local, remote: remote}, nil)
	e.mu.Unlock()
}

// Redial discards any pipe state for local→remote and re-handshakes. Use
// when the peer restarted: its old pipe keys are gone, so traffic sealed
// with the previous master secret would be dropped.
func (e *Engine) Redial(local, remote wire.Addr) error {
	e.DropPeer(local, remote)
	return e.Connect(local, remote)
}

// Send encodes hdr and sends it with payload over the pipe local→remote.
// The header is encoded into the same pooled buffer the packet is sealed in.
func (e *Engine) Send(local, remote wire.Addr, hdr *wire.ILPHeader, payload []byte) error {
	sb := e.sealBufs.Get().(*sealBuf)
	enc, err := sb.encodeHeader(hdr)
	if err != nil {
		e.sealBufs.Put(sb)
		return err
	}
	return e.sealAndSend(sb, local, remote, enc, payload)
}

// SendHeaderBytes sends an already-encoded ILP header with payload over the
// pipe local→remote. This is the forwarding fast path, which re-seals
// decrypted header bytes without re-parsing them. The framed output packet is
// built in a pooled buffer, so the steady state performs no allocations here;
// the transport copies it for the receiver (wire.RxCopy).
func (e *Engine) SendHeaderBytes(local, remote wire.Addr, hdrBytes, payload []byte) error {
	return e.sealAndSend(e.sealBufs.Get().(*sealBuf), local, remote, hdrBytes, payload)
}

// sealAndSend seals one packet into sb, hands it to the transport, and
// returns sb to the pool.
func (e *Engine) sealAndSend(sb *sealBuf, local, remote wire.Addr, hdrBytes, payload []byte) error {
	defer e.sealBufs.Put(sb)
	p := e.peer(pipeKey{local: local, remote: remote})
	if p == nil {
		return fmt.Errorf("%w: %s", ErrNoPipe, remote)
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
	if err := e.cfg.Transport.Send(wire.Datagram{Src: local, Dst: remote, Payload: sealed}); err != nil {
		return err
	}
	p.txPackets.Add(1)
	p.txBytes.Add(uint64(len(sealed)))
	return nil
}

// keepaliveLoop is the single liveness sweep shared by every pipe of every
// endpoint: probe pipes idle past the keepalive interval, declare pipes idle
// past DeadAfter dead. One goroutine regardless of fleet size. It ticks at
// half the keepalive interval on the configured clock, so a Manual clock
// drives liveness deterministically in tests.
func (e *Engine) keepaliveLoop() {
	defer e.wg.Done()
	tick := e.cfg.KeepaliveInterval / 2
	if tick <= 0 {
		tick = e.cfg.KeepaliveInterval
	}
	var sweep []*peer
	for {
		select {
		case <-e.done:
			return
		case <-e.cfg.Clock.After(tick):
		}
		now := e.cfg.Clock.Now()
		sweep = sweep[:0]
		e.eachPeer(wire.Addr{}, func(p *peer) { sweep = append(sweep, p) })
		for _, p := range sweep {
			idle := now.Sub(time.Unix(0, p.lastRx.Load()))
			switch {
			case idle >= e.cfg.DeadAfter:
				e.peerDead(p)
			case idle >= e.cfg.KeepaliveInterval:
				e.keepalivesSent.Add(1)
				probe := wire.ILPHeader{Service: wire.SvcPipeProbe}
				_ = e.Send(p.key.local, p.key.remote, &probe, nil)
			}
		}
	}
}

// peerDead removes a pipe that failed liveness, notifies OnPeerDown, and
// (with Reestablish) starts the automatic re-establishment loop.
func (e *Engine) peerDead(p *peer) {
	e.mu.Lock()
	if e.peer(p.key) != p {
		// Already replaced or removed by a concurrent path.
		e.mu.Unlock()
		return
	}
	e.setPeer(p.key, nil)
	e.mu.Unlock()
	e.peersLost.Add(1)
	if p.ep.cfg.OnPeerDown != nil {
		p.ep.cfg.OnPeerDown(p.key.remote, p.identity)
	}
	if e.cfg.Reestablish {
		e.reestablishAsync(p.key)
	}
}

// reestablishAsync starts (at most one) background re-handshake loop for
// key.
func (e *Engine) reestablishAsync(key pipeKey) {
	e.mu.Lock()
	if e.closed || e.redialing[key] {
		e.mu.Unlock()
		return
	}
	e.redialing[key] = true
	e.wg.Add(1)
	e.mu.Unlock()
	go e.reestablish(key)
}

// reestablish re-handshakes key with capped exponential backoff between
// rounds until the pipe is up (by any path), its endpoint is removed, or the
// engine closes. The fresh handshake derives a new master secret, so the
// re-established pipe's key epochs restart from zero.
func (e *Engine) reestablish(key pipeKey) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.redialing, key)
		e.mu.Unlock()
	}()
	for {
		if e.HasPeer(key.local, key.remote) {
			e.reestablished.Add(1)
			return
		}
		err := e.Connect(key.local, key.remote)
		if err == nil {
			e.reestablished.Add(1)
			return
		}
		if errors.Is(err, ErrManagerClosed) || e.endpoint(key.local) == nil {
			return
		}
		// Each Connect already retried with backoff; wait a further
		// jittered max-backoff round before trying again so a long
		// partition doesn't turn into a handshake flood.
		select {
		case <-e.cfg.Clock.After(e.retry.Jitter(e.retry.max)):
		case <-e.done:
			return
		}
	}
}

// Close shuts down the engine and its transport. Endpoints need no
// individual teardown; their state dies with the engine.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for key, pc := range e.pending {
		pc.err = ErrManagerClosed
		close(pc.done)
		delete(e.pending, key)
	}
	e.mu.Unlock()
	close(e.done)
	err := e.cfg.Transport.Close()
	e.wg.Wait()
	return err
}
