// Package host implements InterEdge host support (§3.1): ILP on the
// endpoint, association with one or more first-hop SNs, the extended host
// network API through which applications invoke services, the out-of-band
// control protocol, and direct host-to-host connectivity for peers that
// are closer to each other than to their SNs (§3.2).
//
// Client-side service logic (pub/sub deliveries, anycast joins, mixnet
// onion construction, …) registers per-service handlers here; the paper
// makes the host component "responsible for implementing client-side
// support for services … that require host logic".
package host

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/clock"
	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// Errors returned by the host stack.
var (
	ErrNoFirstHop    = errors.New("host: no first-hop SN associated")
	ErrInvokeTimeout = errors.New("host: control invocation timed out")
	ErrDirectDenied  = errors.New("host: direct connectivity not permitted to destination")
)

// Message is one inbound ILP packet delivered to a connection or service
// handler. Hdr.Data and Payload lie in the buffer the packet was received
// in, which the host hands on without copying (pipe.PacketHandler). A
// message read from Conn.Receive is the application's to keep. A message
// handed to a ServiceHandler is valid for the call only: the host gives its
// buffer back when the handler returns, so a handler that keeps the message,
// or any slice of it, keeps a Clone.
type Message struct {
	Src     wire.Addr
	Hdr     wire.ILPHeader
	Payload []byte
}

// Clone returns a copy of m whose Hdr.Data and Payload share one new
// allocation and belong to the caller alone. A nil slice stays nil.
func (m Message) Clone() Message {
	b := make([]byte, len(m.Hdr.Data)+len(m.Payload))
	n := copy(b, m.Hdr.Data)
	copy(b[n:], m.Payload)
	if m.Hdr.Data != nil {
		m.Hdr.Data = b[:n:n]
	}
	if m.Payload != nil {
		m.Payload = b[n:]
	}
	return m
}

// ServiceHandler receives packets for a service ID that are not claimed by
// an open connection (client-side service logic). msg is valid for the call
// only (see Message).
type ServiceHandler func(msg Message)

// DirectPolicy decides whether the host may bypass SNs and exchange
// packets directly with the given destination host (§3.2 "Direct
// connectivity"). A typical policy allows hosts in the same subnet.
type DirectPolicy func(dst wire.Addr) bool

// Config configures a Host.
type Config struct {
	// Transport attaches the host to the substrate. Required for New;
	// ignored by NewOnEngine (the engine owns the transport).
	Transport netsim.Transport
	// Addr is the host's address. Required for NewOnEngine, where there is
	// no per-host transport to read it from; ignored by New.
	Addr wire.Addr
	// Identity is the host's signing identity. Required.
	Identity handshake.Identity
	// Clock defaults to the real clock.
	Clock clock.Clock
	// FirstHops optionally pre-configures first-hop SN addresses; the
	// first successfully associated becomes the default.
	FirstHops []wire.Addr
	// Authorize verifies pipe peers (e.g. pinning the SN identity).
	Authorize pipe.AuthorizePeer
	// Direct, if non-nil, enables direct host-to-host connectivity for
	// destinations the policy approves.
	Direct DirectPolicy
	// InvokeTimeout bounds control-protocol invocations (default 3s).
	InvokeTimeout time.Duration
	// KeepaliveInterval enables pipe liveness probes with dead-peer
	// detection (see pipe.Config.KeepaliveInterval); 0 disables them. A
	// host uses this to notice an unannounced first-hop SN death: the dead
	// SN is disassociated and OnPeerDown fires so the association layer can
	// re-place the host onto a live SN.
	KeepaliveInterval time.Duration
	// DeadAfter is the idle window before a peer is declared dead
	// (default 4×KeepaliveInterval).
	DeadAfter time.Duration
	// OnPeerDown is notified after a dead first-hop SN has been
	// disassociated. Optional.
	OnPeerDown pipe.PeerDownHandler
	// OnPipeMoved is notified after a first-hop SN announced its drain
	// successor (SvcPipeMove) and the pipe was rebound to it. Optional.
	OnPipeMoved func(old, successor wire.Addr)
	// FastHandler, when set, receives every inbound data packet (anything
	// that is not control-plane traffic) straight from the pipe, with no
	// Message built. hdr.Data and payload are valid for the call only: the
	// host gives their buffer back when the handler returns, so a handler
	// that keeps either copies it. Connections and OnService handlers are
	// bypassed. This is the weightless-fleet receive path: a million lite
	// hosts cannot afford an allocation per packet.
	FastHandler func(src wire.Addr, hdr wire.ILPHeader, payload []byte)
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Host is one InterEdge-enabled endpoint.
type Host struct {
	cfg   Config
	pipes *pipe.Manager // the host's endpoint: its own engine (New) or a shared one (NewOnEngine)

	mu        sync.Mutex
	firstHops []wire.Addr
	conns     map[connKey]*Conn
	handlers  map[wire.ServiceID]ServiceHandler
	invokes   map[wire.ConnectionID]chan []byte // control replies awaited by RoundTrip
	closed    bool

	nextConn atomic.Uint64

	rxUnclaimed atomic.Uint64
}

type connKey struct {
	svc  wire.ServiceID
	conn wire.ConnectionID
}

// New creates a host and associates it with any pre-configured first hops.
func New(cfg Config) (*Host, error) {
	if cfg.Transport == nil {
		return nil, errors.New("host: Config.Transport is required")
	}
	h := initHost(cfg)
	mgr, err := pipe.New(pipe.Config{
		Transport:         cfg.Transport,
		Identity:          cfg.Identity,
		Clock:             cfg.Clock,
		BatchHandler:      h.handleBatch,
		Authorize:         cfg.Authorize,
		KeepaliveInterval: cfg.KeepaliveInterval,
		DeadAfter:         cfg.DeadAfter,
		OnPeerDown:        h.onPeerDown,
	})
	if err != nil {
		return nil, err
	}
	h.pipes = mgr
	if err := h.associateFirstHops(); err != nil {
		return nil, err
	}
	return h, nil
}

// initHost is the state New and NewOnEngine share, before the host has pipes.
func initHost(cfg Config) *Host {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.InvokeTimeout == 0 {
		cfg.InvokeTimeout = 3 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	h := &Host{
		cfg:      cfg,
		conns:    make(map[connKey]*Conn),
		handlers: make(map[wire.ServiceID]ServiceHandler),
		invokes:  make(map[wire.ConnectionID]chan []byte),
	}
	h.nextConn.Store(1)
	return h
}

// associateFirstHops associates the pre-configured first hops, closing the
// host's pipes if one fails.
func (h *Host) associateFirstHops() error {
	for _, sn := range h.cfg.FirstHops {
		if err := h.Associate(sn); err != nil {
			h.pipes.Close()
			return fmt.Errorf("host: associate with %s: %w", sn, err)
		}
	}
	return nil
}

// Addr returns the host's address.
func (h *Host) Addr() wire.Addr { return h.pipes.LocalAddr() }

// Identity returns the host's identity.
func (h *Host) Identity() handshake.Identity { return h.cfg.Identity }

// Pipes exposes the host's pipe endpoint (services and tests send through
// it directly).
func (h *Host) Pipes() *pipe.Manager { return h.pipes }

// Associate establishes a pipe to a first-hop SN and records it. The
// paper's discovery mechanisms (configuration, anycast, lookup) all end
// here with a concrete SN address.
func (h *Host) Associate(sn wire.Addr) error {
	if err := h.pipes.Connect(sn); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, a := range h.firstHops {
		if a == sn {
			return nil
		}
	}
	h.firstHops = append(h.firstHops, sn)
	return nil
}

// Reassociate re-establishes the pipe to a first-hop SN from scratch —
// the recovery step after an SN crash/restart (§3.3: "for stateless
// services, SN failures are like router failures and can be easily
// recovered from"). Service-level state is reconstructed by the service
// clients: the group services' (pub/sub, multicast, anycast) through
// groupfan.Client.Reestablish.
func (h *Host) Reassociate(sn wire.Addr) error {
	if err := h.pipes.Redial(sn); err != nil {
		return err
	}
	return h.Associate(sn)
}

// Disassociate forgets a first-hop SN (the pipe itself is retained until
// the peer is dropped).
func (h *Host) Disassociate(sn wire.Addr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, a := range h.firstHops {
		if a == sn {
			h.firstHops = append(h.firstHops[:i], h.firstHops[i+1:]...)
			return
		}
	}
}

// FirstHop returns the default first-hop SN.
func (h *Host) FirstHop() (wire.Addr, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.firstHops) == 0 {
		return wire.Addr{}, ErrNoFirstHop
	}
	return h.firstHops[0], nil
}

// FirstHops returns all associated first-hop SNs.
func (h *Host) FirstHops() []wire.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]wire.Addr(nil), h.firstHops...)
}

// SNIdentity returns the verified identity of an associated SN.
func (h *Host) SNIdentity(sn wire.Addr) (ed25519.PublicKey, bool) {
	return h.pipes.PeerIdentity(sn)
}

// handleBatch demultiplexes a same-pipe run of inbound packets: control
// replies, pipe moves, the FastHandler, open connections, then service
// handlers. It may run concurrently for runs from different pipe peers.
//
// A packet handed to a FastHandler or a ServiceHandler is on a lease that
// ends when the call returns, and its receive buffer then goes back to the
// pool (pipe.RxPacket.Release), so the next inbound datagram is copied into
// it. So does the buffer of every packet the host consumes itself. What
// leaves the call keeps its buffer: a message queued on a Conn, and a
// control reply handed to the RoundTrip awaiting it, are the application's.
func (h *Host) handleBatch(_ pipe.Sender, src wire.Addr, pkts []pipe.RxPacket) {
	for k := range pkts {
		if !h.deliver(src, &pkts[k].Hdr, pkts[k].Payload) {
			pkts[k].Release()
		}
	}
}

// deliver hands one inbound packet to whatever claims it and reports whether
// its buffer left with it.
func (h *Host) deliver(src wire.Addr, hdr *wire.ILPHeader, payload []byte) (kept bool) {
	// Control-plane traffic is handled regardless of FastHandler: control
	// replies complete Invoke waiters and SvcPipeMove drives drain rebinds,
	// so lite fleet hosts still exercise the real drain/failover machinery.
	switch hdr.Service {
	case wire.SvcControl:
		return h.handleControlReply(hdr.Conn, payload)
	case wire.SvcPipeMove:
		h.handlePipeMove(src, payload)
		return false
	}
	if h.cfg.FastHandler != nil {
		h.cfg.FastHandler(src, *hdr, payload)
		return false
	}
	msg := Message{Src: src, Hdr: *hdr, Payload: payload}
	h.mu.Lock()
	if c, ok := h.conns[connKey{hdr.Service, hdr.Conn}]; ok {
		h.mu.Unlock()
		return c.deliver(msg)
	}
	handler, ok := h.handlers[hdr.Service]
	h.mu.Unlock()
	if ok {
		handler(msg)
		return false
	}
	h.rxUnclaimed.Add(1)
	return false
}

// handleControlReply hands a control reply to the RoundTrip awaiting it and
// reports whether it did. A host serves no control ops, so anything else is
// unclaimed.
func (h *Host) handleControlReply(conn wire.ConnectionID, payload []byte) bool {
	h.mu.Lock()
	ch, ok := h.invokes[conn]
	if ok {
		delete(h.invokes, conn)
	}
	h.mu.Unlock()
	if !ok {
		h.rxUnclaimed.Add(1)
		return false
	}
	ch <- payload
	return true
}

// handlePipeMove reacts to a draining first-hop SN announcing its
// successor. The notice arrives over the sealed pipe from the SN itself,
// so only the node currently holding our keys can move its own pipe. The
// pipe is rebound in place — same master secret, TX epoch rotated — and
// every first-hop record and pinned connection pointing at the old SN is
// repointed, so traffic continues without a re-handshake.
func (h *Host) handlePipeMove(src wire.Addr, payload []byte) {
	succ, err := wire.DecodePipeMove(payload)
	if err != nil {
		h.cfg.Logf("host %s: malformed pipe-move from %s: %v", h.Addr(), src, err)
		return
	}
	if err := h.pipes.RebindPeer(src, succ); err != nil {
		if errors.Is(err, pipe.ErrPeerExists) {
			// A full handshake with the successor raced the move and won;
			// its keys are fresher, so just drop the stale pipe.
			h.pipes.DropPeer(src)
		} else {
			h.cfg.Logf("host %s: pipe-move %s→%s failed: %v", h.Addr(), src, succ, err)
			return
		}
	}
	h.Repoint(src, succ)
	h.cfg.Logf("host %s: first-hop pipe moved %s→%s", h.Addr(), src, succ)
	if h.cfg.OnPipeMoved != nil {
		h.cfg.OnPipeMoved(src, succ)
	}
}

// Repoint redirects every first-hop record and pinned connection from old
// to succ without touching the pipes themselves. The drain path calls it
// after rebinding the pipe in place; the association layer calls it after
// a failover re-association, where the pipe to succ is freshly established
// but pinned connections would otherwise keep addressing the dead SN.
func (h *Host) Repoint(old, succ wire.Addr) {
	h.mu.Lock()
	replaced := false
	for i, a := range h.firstHops {
		if a == succ {
			replaced = true
		}
		if a == old {
			h.firstHops[i] = succ
			replaced = true
		}
	}
	if !replaced {
		h.firstHops = append(h.firstHops, succ)
	}
	for _, c := range h.conns {
		if c.via == old {
			c.via = succ
		}
	}
	h.mu.Unlock()
}

// onPeerDown reacts to dead-peer detection on a first-hop pipe: the dead
// SN is disassociated so FirstHop never hands out a corpse, then the
// configured handler (typically the association layer's re-placement
// logic) is notified.
func (h *Host) onPeerDown(addr wire.Addr, identity ed25519.PublicKey) {
	h.Disassociate(addr)
	h.cfg.Logf("host %s: first-hop pipe to %s died", h.Addr(), addr)
	if h.cfg.OnPeerDown != nil {
		h.cfg.OnPeerDown(addr, identity)
	}
}

// OnService registers client-side logic for a service ID.
func (h *Host) OnService(svc wire.ServiceID, handler ServiceHandler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handlers[svc] = handler
}

// UnclaimedPackets reports inbound packets that matched no connection,
// handler, or pending invocation.
func (h *Host) UnclaimedPackets() uint64 { return h.rxUnclaimed.Load() }

// RoundTrip sends one encoded control request to the SN sn and waits for
// the payload of its reply (§3.2's out-of-band invocation style); it makes
// the host a control.Caller, through which typed ops are called.
func (h *Host) RoundTrip(sn wire.Addr, req []byte) ([]byte, error) {
	conn := wire.ConnectionID(h.nextConn.Add(1))
	ch := make(chan []byte, 1)
	h.mu.Lock()
	h.invokes[conn] = ch
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.invokes, conn)
		h.mu.Unlock()
	}()

	if err := h.pipes.Send(sn, &wire.ILPHeader{Service: wire.SvcControl, Conn: conn}, req); err != nil {
		return nil, err
	}
	select {
	case reply := <-ch:
		return reply, nil
	case <-h.cfg.Clock.After(h.cfg.InvokeTimeout):
		return nil, ErrInvokeTimeout
	}
}

// SendHeaderBytes sends an already-encoded ILP header with payload over
// the pipe to sn. This is the load-generator fast path: a fleet driver
// pre-encodes each flow's header once and sends with zero per-packet
// allocations (the pipe layer seals in pooled buffers).
func (h *Host) SendHeaderBytes(sn wire.Addr, hdrBytes, payload []byte) error {
	return h.pipes.SendHeaderBytes(sn, hdrBytes, payload)
}

// ConnOption customizes NewConn.
type ConnOption func(*Conn)

// Via pins the connection's first-hop SN ("the host will use whichever
// first-hop SN is appropriate for a given connection", §3.1 — often
// dictated by who pays for the service).
func Via(sn wire.Addr) ConnOption {
	return func(c *Conn) { c.via = sn }
}

// WithBuffer sets the connection's receive buffer depth (default 256).
func WithBuffer(n int) ConnOption {
	return func(c *Conn) { c.bufDepth = n }
}

// Conn is one service connection: a (service, connection-ID) pair flowing
// through a first-hop SN.
type Conn struct {
	host     *Host
	svc      wire.ServiceID
	id       wire.ConnectionID
	via      wire.Addr
	bufDepth int
	rx       chan Message

	closeOnce sync.Once
}

// NewConn opens a service connection through the host's first-hop SN (or
// the SN pinned with Via). This is the explicit invocation style of §3.2:
// the desired service is signalled to the SN via the ILP header; no
// composition of multiple services is possible on one connection.
func (h *Host) NewConn(svc wire.ServiceID, opts ...ConnOption) (*Conn, error) {
	c := &Conn{
		host:     h,
		svc:      svc,
		id:       wire.ConnectionID(h.nextConn.Add(1)),
		bufDepth: 256,
	}
	for _, o := range opts {
		o(c)
	}
	if !c.via.IsValid() {
		fh, err := h.FirstHop()
		if err != nil {
			return nil, err
		}
		c.via = fh
	}
	if err := h.pipes.Connect(c.via); err != nil {
		return nil, err
	}
	c.rx = make(chan Message, c.bufDepth)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errors.New("host: closed")
	}
	h.conns[connKey{svc, c.id}] = c
	return c, nil
}

// Service returns the connection's service ID.
func (c *Conn) Service() wire.ServiceID { return c.svc }

// ID returns the connection ID.
func (c *Conn) ID() wire.ConnectionID { return c.id }

// Via returns the first-hop SN this connection uses. Guarded by the host
// lock because a pipe move (drain) repoints pinned connections in place.
func (c *Conn) Via() wire.Addr {
	c.host.mu.Lock()
	defer c.host.mu.Unlock()
	return c.via
}

// Send transmits payload with optional service-specific header data. Per
// §4, the header data may differ per packet within a connection.
func (c *Conn) Send(svcData, payload []byte) error {
	hdr := wire.ILPHeader{Service: c.svc, Conn: c.id, Data: svcData}
	return c.host.pipes.Send(c.Via(), &hdr, payload)
}

// SendVia transmits through an explicit SN (e.g. a pass-through SN chain).
func (c *Conn) SendVia(sn wire.Addr, svcData, payload []byte) error {
	if err := c.host.pipes.Connect(sn); err != nil {
		return err
	}
	hdr := wire.ILPHeader{Service: c.svc, Conn: c.id, Data: svcData}
	return c.host.pipes.Send(sn, &hdr, payload)
}

// Receive returns the connection's inbound message channel. It is closed
// when the connection closes.
func (c *Conn) Receive() <-chan Message { return c.rx }

// deliver queues msg for Receive and reports whether it did.
func (c *Conn) deliver(msg Message) bool {
	select {
	case c.rx <- msg:
		return true
	default: // receiver not draining: drop, as the network would
		return false
	}
}

// Close tears down the connection.
func (c *Conn) Close() {
	c.closeOnce.Do(func() {
		c.host.mu.Lock()
		delete(c.host.conns, connKey{c.svc, c.id})
		c.host.mu.Unlock()
		close(c.rx)
	})
}

// SendDirect exchanges a packet directly with another InterEdge host,
// bypassing SNs, when the direct policy allows it (§3.2: hosts in the
// same subnet, or closer to each other than to their SNs).
func (h *Host) SendDirect(dst wire.Addr, svc wire.ServiceID, conn wire.ConnectionID, svcData, payload []byte) error {
	if h.cfg.Direct == nil || !h.cfg.Direct(dst) {
		return ErrDirectDenied
	}
	if err := h.pipes.Connect(dst); err != nil {
		return err
	}
	hdr := wire.ILPHeader{Service: svc, Conn: conn, Data: svcData}
	return h.pipes.Send(dst, &hdr, payload)
}

// Close shuts the host down.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	// Stop the pipes first. Closing a host's own engine waits for every RX
	// worker, so once it returns no handleBatch can race a conn-channel
	// close. On a shared engine only the endpoint is removed (the engine
	// keeps running for its other hosts); its peers are removed atomically,
	// so no NEW packet dispatches here afterwards — see NewOnEngine for the
	// residual in-flight-handler caveat.
	err := h.pipes.Close()
	h.mu.Lock()
	conns := make([]*Conn, 0, len(h.conns))
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// SameSubnet returns a DirectPolicy allowing direct connectivity to
// destinations sharing a prefix of the given bit length with the host's
// address.
func SameSubnet(self wire.Addr, bits int) DirectPolicy {
	return func(dst wire.Addr) bool {
		if self.Is4() != dst.Is4() {
			return false
		}
		var a, b []byte
		if self.Is4() {
			a4, b4 := self.As4(), dst.As4()
			a, b = a4[:], b4[:]
		} else {
			a16, b16 := self.As16(), dst.As16()
			a, b = a16[:], b16[:]
		}
		full, rem := bits/8, bits%8
		if full > len(a) {
			full, rem = len(a), 0
		}
		for i := 0; i < full; i++ {
			if a[i] != b[i] {
				return false
			}
		}
		if rem > 0 && full < len(a) {
			mask := byte(0xFF << (8 - rem))
			if a[full]&mask != b[full]&mask {
				return false
			}
		}
		return true
	}
}
