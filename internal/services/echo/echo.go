// Package echo implements a trivial request/reply service used by the
// quickstart example and tests: every packet is returned to its sender
// with the payload intact. Unlike null, echo installs no forwarding state
// and always replies to the packet source.
package echo

import (
	"sync/atomic"

	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Module is the echo service.
type Module struct {
	handled atomic.Uint64
}

// New creates the echo service module.
func New() *Module { return &Module{} }

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcEcho }

// Name implements sn.Module.
func (*Module) Name() string { return "echo" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// Handled returns the number of packets echoed.
func (m *Module) Handled() uint64 { return m.handled.Load() }

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	m.handled.Add(1)
	return sn.Decision{Forwards: pkt.OneForward(sn.Forward{Dst: pkt.Src})}, nil
}
