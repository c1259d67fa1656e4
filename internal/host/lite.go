package host

import (
	"errors"

	"interedge/internal/pipe"
)

// NewOnEngine creates a lite host: a full Host in every API respect —
// associations, connections, control invocations, SvcPipeMove rebinds,
// real handshakes and PSP epochs — on an endpoint of a shared pipe.Engine
// instead of an engine of its own. The host itself owns no goroutines; its
// per-instance cost is its maps and the engine's per-endpoint/per-pipe state
// (~O(100B–1KB)).
//
// cfg.Addr and cfg.Identity are required; cfg.Transport is ignored.
// Keepalive knobs live on the engine, so cfg.KeepaliveInterval/DeadAfter
// are ignored too (OnPeerDown still fires, driven by the engine's sweep).
// Pipes() is the host's endpoint handle on the shared engine.
//
// Close removes the endpoint but, unlike closing a host's own engine, does
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
	h := initHost(cfg)
	m, err := eng.Attach(pipe.EndpointConfig{
		Addr:         cfg.Addr,
		Identity:     cfg.Identity,
		BatchHandler: h.handleBatch,
		Authorize:    cfg.Authorize,
		OnPeerDown:   h.onPeerDown,
	})
	if err != nil {
		return nil, err
	}
	h.pipes = m
	if err := h.associateFirstHops(); err != nil {
		return nil, err
	}
	return h, nil
}
