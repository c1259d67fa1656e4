// Package mobility implements the mobility lookup service from the
// paper's prototype list (§6.3): hosts that move between SNs register
// their current first-hop SN, and correspondents locate them before (or
// during) a conversation. Registrations are bound to the host's verified
// pipe identity, so only the owner of an identity can move it.
package mobility

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Errors returned by the service.
var (
	ErrUnknownHost = errors.New("mobility: identity not registered")
	ErrUnknownPeer = errors.New("mobility: request from host without verified identity")
)

// Location is one host's current attachment.
type Location struct {
	HostAddr wire.Addr
	SN       wire.Addr
	Updated  time.Time
	Seq      uint64
}

// Registry is the shared location store — the durable directory a
// production deployment would replicate; modules on every SN write to and
// read from it.
type Registry struct {
	mu   sync.Mutex
	locs map[string]Location // hex identity -> location
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{locs: make(map[string]Location)}
}

func (r *Registry) update(identity ed25519.PublicKey, loc Location) {
	key := hex.EncodeToString(identity)
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.locs[key]
	if ok {
		loc.Seq = prev.Seq + 1
	}
	r.locs[key] = loc
}

func (r *Registry) lookup(identity []byte) (Location, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	loc, ok := r.locs[hex.EncodeToString(identity)]
	return loc, ok
}

// Module is the mobility service for one SN.
type Module struct {
	registry *Registry
}

// New creates the module backed by the shared registry.
func New(registry *Registry) *Module { return &Module{registry: registry} }

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcMobility }

// Name implements sn.Module.
func (*Module) Name() string { return "mobility" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// HandlePacket implements sn.Module; mobility is control-plane only.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	return sn.Decision{}, errors.New("mobility: no data-plane traffic expected")
}

// LocateArgs are the args of locate.
type LocateArgs struct {
	Identity []byte `json:"identity"`
}

// LocateReply is the reply of locate.
type LocateReply struct {
	HostAddr wire.Addr `json:"host_addr"`
	SN       wire.Addr `json:"sn"`
	Seq      uint64    `json:"seq"`
}

// The service's control ops.
var (
	// OpRegister binds the caller's verified pipe identity to its current
	// address and SN: no spoofing another host's location.
	OpRegister = control.NewOp[control.None, control.None](wire.SvcMobility, "register")
	OpLocate   = control.NewOp[LocateArgs, LocateReply](wire.SvcMobility, "locate")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpRegister, func(env sn.Env, caller wire.Addr, _ control.None) (control.None, error) {
			identity, ok := env.PeerIdentity(caller)
			if !ok {
				return control.None{}, ErrUnknownPeer
			}
			m.registry.update(identity, Location{
				HostAddr: caller,
				SN:       env.LocalAddr(),
				Updated:  env.Now(),
			})
			return control.None{}, nil
		}),
		sn.Handle(OpLocate, func(_ sn.Env, _ wire.Addr, a LocateArgs) (LocateReply, error) {
			loc, ok := m.registry.lookup(a.Identity)
			if !ok {
				return LocateReply{}, ErrUnknownHost
			}
			return LocateReply{HostAddr: loc.HostAddr, SN: loc.SN, Seq: loc.Seq}, nil
		}),
	}
}

// Register announces the host's current attachment at its first-hop SN.
// Call again after each move.
func Register(h *host.Host) error {
	_, err := OpRegister.CallFirstHop(h, control.None{})
	return err
}

// Locate resolves a host identity to its current address and SN.
func Locate(h *host.Host, identity ed25519.PublicKey) (hostAddr, snAddr wire.Addr, err error) {
	rep, err := OpLocate.CallFirstHop(h, LocateArgs{Identity: identity})
	return rep.HostAddr, rep.SN, err
}
