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
	"interedge/internal/psp"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Engine is the shared, multiplexing counterpart of Manager: one transport
// attachment, one set of RX workers, and one keepalive sweep serving MANY
// local identities (endpoints) at once. Where a Manager keys pipes by remote
// address alone — it owns exactly one local address — the Engine keys them
// by (local, remote), so 10^5–10^6 weightless endpoints can share a single
// receive path with a goroutine budget that is O(workers), independent of
// endpoint count.
//
// Everything on a pipe stays real: handshakes run the same transcript-bound
// exchange (addresses are part of the transcript, so each endpoint's pipes
// carry its own identity), PSP seal/open state and epoch rotation are
// identical to Manager pipes, and RebindPeer implements the host side of
// SvcPipeMove unchanged. The peer on the far side cannot tell an Engine
// endpoint from a full Manager.
//
// Concurrency: the peer table is sharded across fixed RWMutex-guarded maps
// (a copy-on-write map would make every establish O(peers) and boxing
// struct keys into a sync.Map would allocate on the data path). Readers
// take only the shard RLock; all writers serialize on Engine.mu first and
// then take shard locks, so multi-shard operations (RebindPeer) never
// deadlock and check-then-act sequences are atomic with respect to other
// writers.
type Engine struct {
	cfg   EngineConfig
	telem *telemetry.Registry

	shards [engineShards]peerShard

	mu        sync.Mutex // serializes writers: pending, respCache, endpoints map writes, closed
	pending   map[pipeKey]*enginePending
	respCache map[pipeKey]msg1Reply
	respFIFO  []pipeKey // insertion order for bounded eviction
	closed    bool

	epMu      sync.RWMutex
	endpoints map[wire.Addr]*engineEndpoint

	retry *Backoff

	workers []chan wire.Datagram

	sealBufs sync.Pool

	peerCount     atomic.Int64
	endpointCount atomic.Int64

	handshakeAttempts *telemetry.Counter
	handshakeFailures *telemetry.Counter
	keepalivesSent    *telemetry.Counter
	keepalivesRcvd    *telemetry.Counter
	peersLost         *telemetry.Counter
	rxPackets         *telemetry.Counter
	rxNoPipe          *telemetry.Counter
	rxOpenErrors      *telemetry.Counter
	txPackets         *telemetry.Counter

	done chan struct{}
	wg   sync.WaitGroup
}

// EngineTransport is the engine's attachment: like netsim.Transport but
// without a single LocalAddr — the engine stamps Datagram.Src per send, so
// one transport carries every endpoint's traffic (netsim.Mux implements it).
type EngineTransport interface {
	// Send transmits dg; dg.Src must already be set to the sending
	// endpoint's address. The transport must not retain dg.Payload.
	Send(dg wire.Datagram) error
	Receive() <-chan wire.Datagram
	Close() error
}

// EngineConfig configures an Engine. The handshake/keepalive knobs mirror
// Config and share its defaults; identity, authorization, and packet
// handling move to the per-endpoint EndpointConfig.
type EngineConfig struct {
	Transport EngineTransport
	// Clock defaults to the real clock.
	Clock clock.Clock
	// HandshakeTimeout, HandshakeBackoffMax, HandshakeRetries: as Config.
	HandshakeTimeout    time.Duration
	HandshakeBackoffMax time.Duration
	HandshakeRetries    int
	// KeepaliveInterval, when nonzero, enables the liveness sweep across
	// every pipe of every endpoint. DeadAfter defaults to 4× the interval.
	// The engine never re-establishes automatically; a dead pipe is
	// reported through the owning endpoint's OnPeerDown and stays down
	// until someone calls Connect again (the fleet controller's job).
	KeepaliveInterval time.Duration
	DeadAfter         time.Duration
	// JitterSeed seeds handshake-retry jitter (default 1; there is no
	// single local address to derive it from).
	JitterSeed int64
	// RxWorkers is the receive fan-out width (default GOMAXPROCS). Inbound
	// datagrams shard by (dst, src) so one pipe's traffic stays ordered.
	RxWorkers int
	// Telemetry receives the engine_* instruments; nil creates a private
	// registry.
	Telemetry *telemetry.Registry
}

// EndpointConfig describes one local identity multiplexed onto an Engine.
type EndpointConfig struct {
	// Addr is the endpoint's local address; pipes are keyed by it.
	Addr wire.Addr
	// Identity signs this endpoint's handshakes.
	Identity handshake.Identity
	// Handler receives the endpoint's decrypted inbound packets, under
	// PacketHandler's ownership rule: hdr.Data and hdrRaw are only valid for
	// the duration of the call, payload is the handler's to keep.
	Handler PacketHandler
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

// engineShards is the fixed peer-table shard count. Power of two; sized so
// that with ~10^6 pipes each shard map holds ~4k entries and writer
// contention during fleet bring-up stays low.
const engineShards = 256

// engineRespCacheMax bounds the msg1-idempotency cache. Manager keeps one
// entry per peer forever (its peer set is small); an engine serving 10^6
// endpoints cannot. Entries are evicted FIFO — retransmissions arrive
// within the handshake-retry window, so only the recent tail matters.
const engineRespCacheMax = 8192

type peerShard struct {
	mu sync.RWMutex
	m  map[pipeKey]*enginePeer
}

// enginePeer is the engine-side pipe state: the same key material and
// liveness clock as Manager's peer, plus the owning endpoint resolved at
// establish time so the data path never looks endpoints up.
type enginePeer struct {
	key      pipeKey
	identity ed25519.PublicKey
	crypto   *psp.PipeCrypto
	up       time.Time

	master    cryptutil.Key
	initiator bool
	baseSPI   uint32

	ep *engineEndpoint

	lastRx atomic.Int64
}

type enginePending struct {
	hs   *handshake.Pending
	ep   *engineEndpoint
	done chan struct{}
	err  error
}

type engineEndpoint struct {
	cfg    EndpointConfig
	sender Sender // pre-bound engineBoundSender, allocated once
}

// engineBoundSender adapts the engine to the Sender interface for one
// endpoint, so PacketHandlers written against Manager semantics work
// unchanged.
type engineBoundSender struct {
	e     *Engine
	local wire.Addr
}

func (s *engineBoundSender) SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error {
	return s.e.SendHeaderBytes(s.local, dst, hdrBytes, payload)
}

// NewEngine creates an Engine and starts its receive pipeline.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Transport == nil {
		return nil, errors.New("pipe: EngineConfig.Transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
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
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	e := &Engine{
		cfg:       cfg,
		pending:   make(map[pipeKey]*enginePending),
		respCache: make(map[pipeKey]msg1Reply),
		endpoints: make(map[wire.Addr]*engineEndpoint),
		retry:     NewBackoff(cfg.HandshakeTimeout, cfg.HandshakeBackoffMax, seed),
		done:      make(chan struct{}),
	}
	for i := range e.shards {
		e.shards[i].m = make(map[pipeKey]*enginePeer)
	}
	e.sealBufs.New = func() any { return new(sealBuf) }
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e.telem = reg
	e.handshakeAttempts = reg.Counter("engine_handshake_attempts_total")
	e.handshakeFailures = reg.Counter("engine_handshake_failures_total")
	e.keepalivesSent = reg.Counter("engine_keepalives_sent_total")
	e.keepalivesRcvd = reg.Counter("engine_keepalives_rcvd_total")
	e.peersLost = reg.Counter("engine_peers_lost_total")
	e.rxPackets = reg.Counter("engine_rx_packets_total")
	e.rxNoPipe = reg.Counter("engine_rx_no_pipe_total")
	e.rxOpenErrors = reg.Counter("engine_rx_open_errors_total")
	e.txPackets = reg.Counter("engine_tx_packets_total")
	_ = reg.Register(telemetry.NewGaugeFunc("engine_pipes", e.peerCount.Load))
	_ = reg.Register(telemetry.NewGaugeFunc("engine_endpoints", e.endpointCount.Load))
	if cfg.RxWorkers > 1 {
		e.workers = make([]chan wire.Datagram, cfg.RxWorkers)
		for i := range e.workers {
			ch := make(chan wire.Datagram, rxWorkerQueueDepth)
			e.workers[i] = ch
			e.wg.Add(1)
			go e.runWorker(ch)
		}
	}
	e.wg.Add(1)
	go e.receiveLoop()
	if cfg.KeepaliveInterval > 0 {
		e.wg.Add(1)
		go e.keepaliveLoop()
	}
	return e, nil
}

// Telemetry returns the registry holding the engine_* instruments.
func (e *Engine) Telemetry() *telemetry.Registry { return e.telem }

// RxWorkers returns the effective receive fan-out width.
func (e *Engine) RxWorkers() int { return e.cfg.RxWorkers }

// Pipes returns the number of established pipes across all endpoints.
func (e *Engine) Pipes() int { return int(e.peerCount.Load()) }

// AddEndpoint registers a local identity on the engine. It fails if the
// address is already registered.
func (e *Engine) AddEndpoint(cfg EndpointConfig) error {
	if !cfg.Addr.IsValid() {
		return errors.New("pipe: EndpointConfig.Addr is required")
	}
	if cfg.Authorize == nil {
		cfg.Authorize = func(wire.Addr, ed25519.PublicKey) bool { return true }
	}
	ep := &engineEndpoint{cfg: cfg}
	ep.sender = &engineBoundSender{e: e, local: cfg.Addr}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrManagerClosed
	}
	e.epMu.Lock()
	_, dup := e.endpoints[cfg.Addr]
	if !dup {
		e.endpoints[cfg.Addr] = ep
	}
	e.epMu.Unlock()
	if dup {
		return fmt.Errorf("pipe: endpoint %s already registered", cfg.Addr)
	}
	e.endpointCount.Add(1)
	return nil
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
	var removed int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for key := range sh.m {
			if key.local == local {
				delete(sh.m, key)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	e.peerCount.Add(-removed)
	e.mu.Unlock()
}

func (e *Engine) endpoint(local wire.Addr) *engineEndpoint {
	e.epMu.RLock()
	ep := e.endpoints[local]
	e.epMu.RUnlock()
	return ep
}

// pipeShardIndex maps a pipe key onto [0, n) with FNV-1a over both
// addresses plus an avalanche mix, so sequentially allocated lab addresses
// still spread evenly.
func pipeShardIndex(local, remote wire.Addr, n int) int {
	h := uint64(14695981039346656037)
	a := local.As16()
	for _, c := range a {
		h = (h ^ uint64(c)) * 1099511628211
	}
	b := remote.As16()
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

func (e *Engine) shard(key pipeKey) *peerShard {
	return &e.shards[pipeShardIndex(key.local, key.remote, engineShards)]
}

// peer returns the established pipe for key, or nil. Readers take only the
// shard read-lock.
func (e *Engine) peer(key pipeKey) *enginePeer {
	sh := e.shard(key)
	sh.mu.RLock()
	p := sh.m[key]
	sh.mu.RUnlock()
	return p
}

// setPeer installs (p != nil) or removes (p == nil) the pipe for key and
// maintains the pipe gauge. Callers must hold e.mu.
func (e *Engine) setPeer(key pipeKey, p *enginePeer) {
	sh := e.shard(key)
	sh.mu.Lock()
	_, had := sh.m[key]
	if p == nil {
		delete(sh.m, key)
	} else {
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

func (e *Engine) receiveLoop() {
	defer e.wg.Done()
	n := len(e.workers)
	if n == 0 {
		var scratch psp.Scratch
		for dg := range e.cfg.Transport.Receive() {
			e.dispatch(dg, &scratch)
		}
		return
	}
	for dg := range e.cfg.Transport.Receive() {
		if len(dg.Payload) < 1 {
			continue
		}
		e.workers[pipeShardIndex(dg.Dst, dg.Src, n)] <- dg
	}
	for _, ch := range e.workers {
		close(ch)
	}
}

func (e *Engine) runWorker(ch chan wire.Datagram) {
	defer e.wg.Done()
	var scratch psp.Scratch
	for dg := range ch {
		e.dispatch(dg, &scratch)
	}
}

// dispatch demuxes one inbound datagram: dg.Dst names the endpoint,
// dg.Src the remote. Handshake frames go through the engine's pending
// machinery; ILP frames are opened with the worker's scratch (zero-alloc
// once warm) and handed to the owning endpoint's handler.
func (e *Engine) dispatch(dg wire.Datagram, scratch *psp.Scratch) {
	if len(dg.Payload) < 1 {
		return
	}
	switch wire.FrameType(dg.Payload[0]) {
	case wire.FrameHandshake1:
		e.handleMsg1(dg.Dst, dg.Src, dg.Payload[1:])
	case wire.FrameHandshake2:
		e.handleMsg2(dg.Dst, dg.Src, dg.Payload[1:])
	case wire.FrameILP:
		e.handleILP(dg, scratch)
	}
}

func (e *Engine) handleILP(dg wire.Datagram, scratch *psp.Scratch) {
	key := pipeKey{local: dg.Dst, remote: dg.Src}
	// As in Manager.handleILPRun, a datagram consumed here — no pipe, does
	// not open or decode, a probe, a probe ack — gives its buffer back.
	p := e.peer(key)
	if p == nil {
		e.rxNoPipe.Add(1)
		wire.RxRelease(dg.Payload)
		return
	}
	hdrRaw, payload, err := p.crypto.RX.OpenScratch(scratch, dg.Payload[1:])
	if err != nil {
		e.rxOpenErrors.Add(1)
		wire.RxRelease(dg.Payload)
		return
	}
	e.rxPackets.Add(1)
	if e.cfg.KeepaliveInterval > 0 {
		p.lastRx.Store(e.cfg.Clock.Now().UnixNano())
	}
	var hdr wire.ILPHeader
	if _, err := hdr.DecodeFromBytes(hdrRaw); err != nil {
		wire.RxRelease(dg.Payload)
		return
	}
	switch hdr.Service {
	case wire.SvcPipeProbe:
		e.keepalivesRcvd.Add(1)
		ack := wire.ILPHeader{Service: wire.SvcPipeProbeAck, Conn: hdr.Conn}
		_ = e.Send(key.local, key.remote, &ack, nil)
		wire.RxRelease(dg.Payload)
		return
	case wire.SvcPipeProbeAck:
		wire.RxRelease(dg.Payload)
		return
	}
	if h := p.ep.cfg.Handler; h != nil {
		h(p.ep.sender, dg.Src, hdr, hdrRaw, payload)
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
	// Simultaneous open: same tie-break as Manager — the numerically lower
	// address is the designated initiator and ignores the peer's msg1.
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
		return
	}
	if !ep.cfg.Authorize(remote, res.PeerIdentity) {
		return
	}
	out := append([]byte{byte(wire.FrameHandshake2)}, msg2...)
	// Install, then reply, for the reason Manager.handleMsg1 gives.
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

// establish installs the pipe and wakes any Connect waiters; reply and the
// result are Manager.establish's.
func (e *Engine) establish(key pipeKey, ep *engineEndpoint, res *handshake.Result, reply *msg1Reply) bool {
	crypto, err := psp.NewPipeCrypto(res.Master, res.Initiator, res.BaseSPI)
	if err != nil {
		return false
	}
	p := &enginePeer{
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
			if len(e.respFIFO) > engineRespCacheMax {
				evict := e.respFIFO[0]
				e.respFIFO = e.respFIFO[1:]
				delete(e.respCache, evict)
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
	pc := &enginePending{hs: hs, ep: ep, done: make(chan struct{})}
	e.pending[key] = pc
	e.mu.Unlock()

	msg1 := append([]byte{byte(wire.FrameHandshake1)}, hs.Msg1()...)
	for attempt := 0; attempt < e.cfg.HandshakeRetries; attempt++ {
		e.handshakeAttempts.Add(1)
		_ = e.cfg.Transport.Send(wire.Datagram{Src: local, Dst: remote, Payload: msg1})
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

func (e *Engine) failPending(key pipeKey, pc *enginePending, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.pending[key]; ok && cur == pc {
		delete(e.pending, key)
		pc.err = err
		close(pc.done)
	}
	// As with Manager: if establish won the race, pc.err stays nil.
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

// DropPeer tears down the pipe local→remote.
func (e *Engine) DropPeer(local, remote wire.Addr) {
	key := pipeKey{local: local, remote: remote}
	e.mu.Lock()
	e.setPeer(key, nil)
	e.mu.Unlock()
}

// Redial discards any pipe state for local→remote and re-handshakes.
func (e *Engine) Redial(local, remote wire.Addr) error {
	e.DropPeer(local, remote)
	return e.Connect(local, remote)
}

// RebindPeer moves the endpoint's established pipe from oldRemote to
// newRemote keeping its keys — the host side of SvcPipeMove, identical in
// semantics to Manager.RebindPeer including the no-clobber rule and the TX
// epoch rotation.
func (e *Engine) RebindPeer(local, oldRemote, newRemote wire.Addr) error {
	oldKey := pipeKey{local: local, remote: oldRemote}
	newKey := pipeKey{local: local, remote: newRemote}
	e.mu.Lock()
	old := e.peer(oldKey)
	if old == nil {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoPipe, oldRemote)
	}
	if e.peer(newKey) != nil {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPeerExists, newRemote)
	}
	p := &enginePeer{
		key:       newKey,
		identity:  old.identity,
		crypto:    old.crypto,
		up:        e.cfg.Clock.Now(),
		master:    old.master,
		initiator: old.initiator,
		baseSPI:   old.baseSPI,
		ep:        old.ep,
	}
	p.lastRx.Store(p.up.UnixNano())
	e.setPeer(oldKey, nil)
	e.setPeer(newKey, p)
	e.mu.Unlock()
	return p.crypto.TX.Rotate()
}

// Send encodes hdr and sends it with payload over the pipe local→remote.
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
// pipe local→remote. Like Manager.SendHeaderBytes it builds the framed
// packet in a pooled buffer: the steady state performs no allocations
// beyond whatever the transport does with the datagram.
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
	if err := e.cfg.Transport.Send(wire.Datagram{Src: local, Dst: remote, Payload: sealed}); err != nil {
		return err
	}
	e.txPackets.Add(1)
	return nil
}

// keepaliveLoop is the single liveness sweep shared by every pipe of every
// endpoint: probe pipes idle past the keepalive interval, declare pipes
// idle past DeadAfter dead. One goroutine regardless of fleet size.
func (e *Engine) keepaliveLoop() {
	defer e.wg.Done()
	tick := e.cfg.KeepaliveInterval / 2
	if tick <= 0 {
		tick = e.cfg.KeepaliveInterval
	}
	var sweep []*enginePeer
	for {
		select {
		case <-e.done:
			return
		case <-e.cfg.Clock.After(tick):
		}
		now := e.cfg.Clock.Now()
		sweep = sweep[:0]
		for i := range e.shards {
			sh := &e.shards[i]
			sh.mu.RLock()
			for _, p := range sh.m {
				sweep = append(sweep, p)
			}
			sh.mu.RUnlock()
		}
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

func (e *Engine) peerDead(p *enginePeer) {
	e.mu.Lock()
	if e.peer(p.key) != p {
		e.mu.Unlock()
		return
	}
	e.setPeer(p.key, nil)
	e.mu.Unlock()
	e.peersLost.Add(1)
	if p.ep.cfg.OnPeerDown != nil {
		p.ep.cfg.OnPeerDown(p.key.remote, p.identity)
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
