// Package sdwan implements an SD-WAN service — the paper's canonical
// operator-imposed pass-through service (§3.2: "an enterprise may impose a
// firewall service or an SD-WAN service on all traffic entering and
// leaving its network" via a "pass-through SN at its boundary").
//
// The enterprise operator configures uplinks (next-hop SNs toward
// different providers) and a policy mapping traffic classes to uplink
// preference orders. Flows are pinned to the first healthy uplink of
// their class; when an uplink is marked down, its flows fail over and
// their cached decisions are invalidated.
package sdwan

import (
	"errors"
	"fmt"
	"sync"

	"interedge/internal/control"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Errors returned by the service.
var (
	ErrBadHeader       = errors.New("sdwan: malformed header data")
	ErrNoHealthyUplink = errors.New("sdwan: no healthy uplink for class")
)

// Class identifies a traffic class (first byte of header data).
type Class = byte

// Well-known classes used by examples and tests.
const (
	ClassDefault     Class = 0
	ClassInteractive Class = 1
	ClassBulk        Class = 2
)

// Module is the SD-WAN pass-through service.
type Module struct {
	mu      sync.Mutex
	uplinks []wire.Addr
	healthy map[wire.Addr]bool
	policy  map[Class][]int            // class -> uplink preference order
	flows   map[wire.FlowKey]wire.Addr // flow -> pinned uplink
}

// New creates the module.
func New() *Module {
	return &Module{
		healthy: make(map[wire.Addr]bool),
		policy:  make(map[Class][]int),
		flows:   make(map[wire.FlowKey]wire.Addr),
	}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcSDWAN }

// Name implements sn.Module.
func (*Module) Name() string { return "sdwan" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// ConfigArgs are the args of configure.
type ConfigArgs struct {
	Uplinks []wire.Addr     `json:"uplinks"`
	Policy  map[Class][]int `json:"policy"` // class -> uplink preference order
}

// HealthArgs are the args of set_health.
type HealthArgs struct {
	Uplink wire.Addr `json:"uplink"`
	Up     bool      `json:"up"`
}

// The service's control ops. set_health marks an uplink up or down; the
// flows pinned to a downed uplink fail over.
var (
	OpConfigure = control.NewOp[ConfigArgs, control.None](wire.SvcSDWAN, "configure")
	OpSetHealth = control.NewOp[HealthArgs, control.None](wire.SvcSDWAN, "set_health")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{sn.Handle(OpConfigure, m.configure), sn.Handle(OpSetHealth, m.setHealth)}
}

func (m *Module) configure(_ sn.Env, _ wire.Addr, a ConfigArgs) (control.None, error) {
	if !wire.AllValid(a.Uplinks) {
		return control.None{}, errors.New("sdwan: uplink with no address")
	}
	for _, order := range a.Policy {
		for _, idx := range order {
			if idx < 0 || idx >= len(a.Uplinks) {
				return control.None{}, fmt.Errorf("sdwan: uplink index %d out of range", idx)
			}
		}
	}
	m.mu.Lock()
	m.uplinks = a.Uplinks
	m.policy = a.Policy
	for _, u := range a.Uplinks {
		if _, ok := m.healthy[u]; !ok {
			m.healthy[u] = true
		}
	}
	m.mu.Unlock()
	return control.None{}, nil
}

func (m *Module) setHealth(env sn.Env, _ wire.Addr, a HealthArgs) (control.None, error) {
	m.mu.Lock()
	m.healthy[a.Uplink] = a.Up
	// Unpin flows on a downed uplink and invalidate their cached
	// decisions so the next packet re-routes.
	var invalid []wire.FlowKey
	if !a.Up {
		for k, pinned := range m.flows {
			if pinned == a.Uplink {
				delete(m.flows, k)
				invalid = append(invalid, k)
			}
		}
	}
	m.mu.Unlock()
	for _, k := range invalid {
		env.InvalidateRule(k)
	}
	return control.None{}, nil
}

// HeaderData encodes class ‖ final destination.
func HeaderData(class Class, finalDst wire.Addr) []byte {
	b := finalDst.As16()
	return append([]byte{class}, b[:]...)
}

// HandlePacket implements sn.Module: pick the flow's uplink and pin it.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) != 17 {
		return sn.Decision{}, ErrBadHeader
	}
	class := Class(pkt.Hdr.Data[0])

	m.mu.Lock()
	order, ok := m.policy[class]
	if !ok {
		order = m.policy[ClassDefault]
	}
	if len(order) == 0 {
		// No policy: all uplinks in index order.
		order = make([]int, len(m.uplinks))
		for i := range order {
			order[i] = i
		}
	}
	var chosen wire.Addr
	found := false
	for _, idx := range order {
		if idx < len(m.uplinks) && m.healthy[m.uplinks[idx]] {
			chosen = m.uplinks[idx]
			found = true
			break
		}
	}
	if found {
		m.flows[pkt.Key()] = chosen
	}
	m.mu.Unlock()
	if !found {
		return sn.Decision{}, ErrNoHealthyUplink
	}
	return sn.Decision{
		Forwards: []sn.Forward{{Dst: chosen}},
		Rules: []sn.Rule{{
			Key:    pkt.Key(),
			Action: cache.Action{Forward: []wire.Addr{chosen}},
		}},
	}, nil
}

// PinnedUplink reports where a flow is pinned (tests).
func (m *Module) PinnedUplink(key wire.FlowKey) (wire.Addr, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, ok := m.flows[key]
	return u, ok
}
