package host

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"interedge/internal/clock"
	"interedge/internal/handshake"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// engineBinding adapts one pipe.Engine endpoint to the pipeBackend
// interface by currying the host's local address into every call. It holds
// no goroutines, channels, or buffers — an engine-backed host is pure
// state, which is what makes 10^5–10^6 of them feasible.
type engineBinding struct {
	eng   *pipe.Engine
	local wire.Addr
	id    handshake.Identity
}

func (b *engineBinding) LocalAddr() wire.Addr          { return b.local }
func (b *engineBinding) Identity() handshake.Identity  { return b.id }
func (b *engineBinding) Connect(addr wire.Addr) error  { return b.eng.Connect(b.local, addr) }
func (b *engineBinding) Redial(addr wire.Addr) error   { return b.eng.Redial(b.local, addr) }
func (b *engineBinding) DropPeer(addr wire.Addr)       { b.eng.DropPeer(b.local, addr) }
func (b *engineBinding) RebindPeer(oldAddr, newAddr wire.Addr) error {
	return b.eng.RebindPeer(b.local, oldAddr, newAddr)
}
func (b *engineBinding) PeerIdentity(addr wire.Addr) (ed25519.PublicKey, bool) {
	return b.eng.PeerIdentity(b.local, addr)
}
func (b *engineBinding) Send(dst wire.Addr, hdr wire.ILPHeader, payload []byte) error {
	return b.eng.Send(b.local, dst, &hdr, payload)
}
func (b *engineBinding) SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error {
	return b.eng.SendHeaderBytes(b.local, dst, hdrBytes, payload)
}

// Close unregisters the endpoint from the engine — never the engine
// itself, which is shared with every other lite host.
func (b *engineBinding) Close() error {
	b.eng.RemoveEndpoint(b.local)
	return nil
}

// NewOnEngine creates a lite host: a full Host in every API respect —
// associations, connections, control invocations, SvcPipeMove rebinds,
// real handshakes and PSP epochs — but backed by a shared pipe.Engine
// endpoint instead of a private pipe.Manager. The host itself owns no
// goroutines; its per-instance cost is its maps and the engine's
// per-endpoint/per-pipe state (~O(100B–1KB)).
//
// cfg.Addr and cfg.Identity are required; cfg.Transport is ignored.
// Keepalive knobs live on the engine, so cfg.KeepaliveInterval/DeadAfter
// are ignored too (OnPeerDown still fires, driven by the engine's sweep).
// Pipes() returns nil for engine-backed hosts.
//
// Close unregisters the endpoint but, unlike a manager-backed Close, does
// not wait for in-flight packet handlers on the engine's workers; callers
// tearing down conns mid-traffic should quiesce senders first (the fleet
// driver stops load before teardown).
func NewOnEngine(eng *pipe.Engine, cfg Config) (*Host, error) {
	if eng == nil {
		return nil, errors.New("host: engine is required")
	}
	if !cfg.Addr.IsValid() {
		return nil, errors.New("host: Config.Addr is required for engine-backed hosts")
	}
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
		invokes:  make(map[wire.ConnectionID]chan ControlResult),
	}
	h.nextConn.Store(1)
	h.pipes = &engineBinding{eng: eng, local: cfg.Addr, id: cfg.Identity}
	if err := eng.AddEndpoint(pipe.EndpointConfig{
		Addr:       cfg.Addr,
		Identity:   cfg.Identity,
		Handler:    h.handlePacket,
		Authorize:  cfg.Authorize,
		OnPeerDown: h.onPeerDown,
	}); err != nil {
		return nil, err
	}
	for _, sn := range cfg.FirstHops {
		if err := h.Associate(sn); err != nil {
			h.pipes.Close()
			return nil, fmt.Errorf("host: associate with %s: %w", sn, err)
		}
	}
	return h, nil
}
