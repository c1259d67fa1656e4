// Package pipe manages ILP pipes: the long-lived, handshake-keyed,
// PSP-encrypted point-to-point channels between hosts and SNs and between
// SNs (§3.1 "Host-to-SN Pipes", "SN-to-SN Pipe"). There is one pipe stack,
// the Engine: it owns one transport attachment and every pipe of the local
// identities (endpoints) it serves, keyed by (local, remote). An SN or a
// standalone host runs on a one-endpoint engine (New); a fleet of lite hosts
// shares one engine on a multiplexing transport. A Manager is the handle of
// one endpoint.
//
// The Engine handles:
//   - handshake initiation, response, retransmission, and simultaneous-open
//     tie-breaking (the numerically lower address acts as initiator);
//   - per-pipe PSP seal/open state and epoch rotation, liveness probes,
//     dead-peer detection and re-establishment, and drain export/import;
//   - dispatch of decrypted (header, payload) pairs to the endpoint's
//     PacketHandler or BatchPacketHandler, with per-worker egress coalescing.
//
// Receive processing is sharded across RxWorkers goroutines by pipe: the
// transport queues every datagram of one pipe (handshakes and ILP alike) on
// the same worker's queue (netsim.ShardedReceiver), which handles them in
// arrival order, so per-peer packet order is preserved while independent
// peers decrypt concurrently. Handlers therefore run
// concurrently for packets from different sources; callers needing further
// concurrency (e.g. the SN module runtime) hand off internally.
package pipe

import (
	"crypto/ed25519"
	"errors"
	"time"

	"interedge/internal/clock"
	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// Sender is the egress surface handed to PacketHandlers: the worker's
// coalescing egress queue. Sends may be batched until the worker's input
// drains or the per-destination cap (txBatchCap) is hit, and the queued
// packets of one destination are sealed together at flush time with a single
// cipher-state fetch. A Manager is a Sender too, whose every send is sealed
// and goes out immediately. Either way SendHeaderBytes copies hdrBytes and
// payload at call time, so the caller may reuse both as soon as it returns.
type Sender interface {
	SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error
}

// PacketHandler receives every decrypted inbound ILP packet. tx is the
// worker's egress Sender: forwards issued through it coalesce into vectored
// batches (see Sender) while preserving per-source order.
// hdrRaw is the encoded form of hdr, handed to the handler so a forwarding
// fast path can re-seal it without re-encoding.
//
// Ownership, stated here once for everything above the pipe layer (the SN's
// slow path, host.Message): the packet is the handler's — header, data and
// payload alike — to keep, or, for a BatchPacketHandler that holds no
// reference to any of it any more, to give back once with pkt.Release(), or
// to hand on with its buffer (pkt.Buffer) to whatever gives that back once
// it is done. The SN's slow path gives it back when a module's lease on the
// packet ends (sn.Packet), and a host when the service handler or
// FastHandler it handed the packet to returns (host.Message); a host keeps
// only what it queues on a connection or hands to a control round trip. The
// transport gave the datagram to its receiver for good
// (netsim.Transport.Receive), the pipe opened the header back into the bytes
// its ciphertext held and decoded it there, so hdrRaw, hdr.Data and payload
// all lie in that one buffer, and nothing below writes to it again. A
// handler retains, queues or hands on any of them without copying.
//
// Handlers run concurrently for packets from different source addresses but
// serially, in arrival order, for any single source. tx is only valid for
// the duration of the call and must not be used from other goroutines; work
// handed off internally must send through the endpoint's Manager instead.
type PacketHandler func(tx Sender, src wire.Addr, hdr wire.ILPHeader, hdrRaw, payload []byte)

// RxPacket is one decrypted inbound ILP packet of a receive batch. Hdr is
// the decoded header; HdrRaw is its encoded form (for re-seal-without-
// re-encode forwarding); Payload is the application payload. All three lie
// in the received datagram, which is the handler's to keep or to Release
// (see PacketHandler).
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
// reference to HdrRaw, Hdr.Data or Payload any more may call it — everything
// it forwarded has been copied by then (Sender) — and all three are gone
// afterwards. Releasing is
// optional, and a second Release is a no-op.
func (p *RxPacket) Release() {
	wire.RxRelease(p.buf)
	p.buf, p.HdrRaw, p.Hdr.Data, p.Payload = nil, nil, nil, nil
}

// Buffer returns the receive buffer HdrRaw, Hdr.Data and Payload lie in, for
// a handler that hands the packet on and gives the buffer back later
// (wire.RxRelease) instead of calling Release.
func (p *RxPacket) Buffer() []byte { return p.buf }

// BatchPacketHandler receives each decrypted same-pipe run of an RX batch
// as one call, preserving arrival order within pkts. It is the batch
// counterpart of PacketHandler: the same ordering, aliasing, and tx-validity
// rules apply to every element of pkts. Liveness probes are answered by the
// engine and never appear in pkts.
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

// Errors returned by the pipe stack.
var (
	ErrNoPipe           = errors.New("pipe: no established pipe to destination")
	ErrHandshakeTimeout = errors.New("pipe: handshake timed out")
	ErrUnauthorized     = errors.New("pipe: peer rejected by authorization policy")
	ErrManagerClosed    = errors.New("pipe: manager closed")
)

// Config configures New: a node's own one-endpoint engine. The fields are
// those of EngineConfig and EndpointConfig, with the endpoint's address read
// from the transport.
type Config struct {
	Transport netsim.Transport
	Identity  handshake.Identity
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Handler receives inbound packets; required for nodes that accept
	// traffic (unless BatchHandler is set).
	Handler PacketHandler
	// BatchHandler: see EndpointConfig.BatchHandler.
	BatchHandler BatchPacketHandler
	// Authorize defaults to accept-all.
	Authorize AuthorizePeer
	// OnPeerUp is optional.
	OnPeerUp PeerUpHandler
	// OnPeerDown is notified when dead-peer detection removes a pipe.
	// Optional; only fires when KeepaliveInterval > 0.
	OnPeerDown PeerDownHandler
	// HandshakeTimeout, HandshakeRetries, KeepaliveInterval, DeadAfter,
	// Reestablish, RxWorkers, Telemetry: see EngineConfig.
	HandshakeTimeout  time.Duration
	HandshakeRetries  int
	KeepaliveInterval time.Duration
	DeadAfter         time.Duration
	Reestablish       bool
	RxWorkers         int
	Telemetry         *telemetry.Registry
}

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

// Manager is the handle of one endpoint on an Engine: every method is the
// engine's, with the endpoint's address as the local end. A Manager from New
// owns its engine and closes it; one from Engine.Attach removes only its
// endpoint.
type Manager struct {
	eng   *Engine
	local wire.Addr
	owns  bool
}

// New creates a node's pipe stack: an engine with one endpoint, at the
// transport's address, and its receive pipeline running.
func New(cfg Config) (*Manager, error) {
	if cfg.Transport == nil {
		return nil, errors.New("pipe: Config.Transport is required")
	}
	eng, err := newEngine(EngineConfig{
		Transport:         cfg.Transport,
		Clock:             cfg.Clock,
		HandshakeTimeout:  cfg.HandshakeTimeout,
		HandshakeRetries:  cfg.HandshakeRetries,
		KeepaliveInterval: cfg.KeepaliveInterval,
		DeadAfter:         cfg.DeadAfter,
		Reestablish:       cfg.Reestablish,
		RxWorkers:         cfg.RxWorkers,
		Telemetry:         cfg.Telemetry,
	}, soloShards)
	if err != nil {
		return nil, err
	}
	m, err := eng.addEndpoint(EndpointConfig{
		Addr:         cfg.Transport.LocalAddr(),
		Identity:     cfg.Identity,
		Handler:      cfg.Handler,
		BatchHandler: cfg.BatchHandler,
		Authorize:    cfg.Authorize,
		OnPeerUp:     cfg.OnPeerUp,
		OnPeerDown:   cfg.OnPeerDown,
	}, true)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return m, nil
}

// LocalAddr returns the endpoint's address.
func (m *Manager) LocalAddr() wire.Addr { return m.local }

// Identity returns the endpoint's identity (zero once the endpoint is
// removed).
func (m *Manager) Identity() handshake.Identity {
	if ep := m.eng.endpoint(m.local); ep != nil {
		return ep.cfg.Identity
	}
	return handshake.Identity{}
}

// RxWorkers returns the engine's receive-pipeline width.
func (m *Manager) RxWorkers() int { return m.eng.RxWorkers() }

// Telemetry returns the registry holding the engine's pipe instruments.
func (m *Manager) Telemetry() *telemetry.Registry { return m.eng.Telemetry() }

// Connect establishes (or returns) a pipe to addr, blocking until the
// handshake completes or times out.
func (m *Manager) Connect(addr wire.Addr) error { return m.eng.Connect(m.local, addr) }

// HasPeer reports whether a pipe to addr is established.
func (m *Manager) HasPeer(addr wire.Addr) bool { return m.eng.HasPeer(m.local, addr) }

// Peers lists established pipes.
func (m *Manager) Peers() []PeerInfo { return m.eng.Peers(m.local) }

// PeerIdentity returns the verified identity of an established peer.
func (m *Manager) PeerIdentity(addr wire.Addr) (ed25519.PublicKey, bool) {
	return m.eng.PeerIdentity(m.local, addr)
}

// Send encodes hdr and sends it with payload over the pipe to dst.
func (m *Manager) Send(dst wire.Addr, hdr *wire.ILPHeader, payload []byte) error {
	return m.eng.Send(m.local, dst, hdr, payload)
}

// SendHeaderBytes sends an already-encoded ILP header with payload over the
// pipe to dst (see Engine.SendHeaderBytes).
func (m *Manager) SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error {
	return m.eng.SendHeaderBytes(m.local, dst, hdrBytes, payload)
}

// RotateAll advances the sending key epoch on every pipe (§4 key rotation).
func (m *Manager) RotateAll() error { return m.eng.RotateAll(m.local) }

// DropPeer tears down the pipe to addr (used by failure-injection tests
// and by Redial).
func (m *Manager) DropPeer(addr wire.Addr) { m.eng.DropPeer(m.local, addr) }

// Redial discards any existing pipe state for addr and performs a fresh
// handshake.
func (m *Manager) Redial(addr wire.Addr) error { return m.eng.Redial(m.local, addr) }

// ExportPeer snapshots the established pipe to addr (see Engine.ExportPeer).
func (m *Manager) ExportPeer(addr wire.Addr) (PipeState, error) {
	return m.eng.ExportPeer(m.local, addr)
}

// ImportPeer installs an established pipe from exported state (see
// Engine.ImportPeer).
func (m *Manager) ImportPeer(state PipeState) error { return m.eng.ImportPeer(m.local, state) }

// RebindPeer moves an established pipe from oldAddr to newAddr, keeping its
// keys (see Engine.RebindPeer).
func (m *Manager) RebindPeer(oldAddr, newAddr wire.Addr) error {
	return m.eng.RebindPeer(m.local, oldAddr, newAddr)
}

// Close shuts the endpoint down: a Manager from New closes its engine and
// transport, waiting for every RX worker; one from Engine.Attach removes its
// endpoint and pipes from the shared engine.
func (m *Manager) Close() error {
	if m.owns {
		return m.eng.Close()
	}
	m.eng.RemoveEndpoint(m.local)
	return nil
}
