// Package firewall implements an operator-imposed next-generation-firewall
// pass-through service (§1.2 NGFW; §3.2 operator-imposed services): the
// enterprise's boundary SN filters traffic by ordered source-prefix rules
// before forwarding toward the destination. Denied flows get drop rules in
// the decision cache so repeat offenders cost nothing on the slow path.
package firewall

import (
	"errors"
	"net/netip"
	"sync"

	"interedge/internal/control"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Errors returned by the service.
var (
	ErrBadHeader = errors.New("firewall: malformed header data")
)

// Rule is one ordered filter rule.
type Rule struct {
	Prefix netip.Prefix `json:"prefix"`
	Allow  bool         `json:"allow"`
}

// Module is the firewall service.
type Module struct {
	mu           sync.Mutex
	rules        []Rule
	defaultAllow bool
	denied       uint64
	allowed      uint64
}

// New creates a firewall that allows by default.
func New() *Module {
	return &Module{defaultAllow: true}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcFirewall }

// Name implements sn.Module.
func (*Module) Name() string { return "firewall" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// SetRulesArgs are the args of set_rules.
type SetRulesArgs struct {
	Rules        []Rule `json:"rules"`
	DefaultAllow bool   `json:"default_allow"`
}

// Stats is the reply of stats: packets the rules allowed and denied.
type Stats struct {
	Allowed uint64 `json:"allowed"`
	Denied  uint64 `json:"denied"`
}

// The service's control ops. set_rules replaces the rule list.
var (
	OpSetRules = control.NewOp[SetRulesArgs, control.None](wire.SvcFirewall, "set_rules")
	OpStats    = control.NewOp[control.None, Stats](wire.SvcFirewall, "stats")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpSetRules, func(_ sn.Env, _ wire.Addr, a SetRulesArgs) (control.None, error) {
			for _, r := range a.Rules {
				if !r.Prefix.IsValid() {
					return control.None{}, errors.New("firewall: rule with no prefix")
				}
			}
			m.mu.Lock()
			m.rules = a.Rules
			m.defaultAllow = a.DefaultAllow
			m.mu.Unlock()
			return control.None{}, nil
		}),
		sn.Handle(OpStats, func(sn.Env, wire.Addr, control.None) (Stats, error) {
			m.mu.Lock()
			defer m.mu.Unlock()
			return Stats{Allowed: m.allowed, Denied: m.denied}, nil
		}),
	}
}

// HeaderData encodes the final destination.
func HeaderData(finalDst wire.Addr) []byte {
	b := finalDst.As16()
	return b[:]
}

// HandlePacket implements sn.Module: first matching rule wins.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) != 16 {
		return sn.Decision{}, ErrBadHeader
	}
	var b [16]byte
	copy(b[:], pkt.Hdr.Data)
	dst := netip.AddrFrom16(b).Unmap()

	m.mu.Lock()
	allow := m.defaultAllow
	for _, r := range m.rules {
		if r.Prefix.Contains(pkt.Src) {
			allow = r.Allow
			break
		}
	}
	if allow {
		m.allowed++
	} else {
		m.denied++
	}
	m.mu.Unlock()

	if !allow {
		return sn.Decision{
			Rules: []sn.Rule{{Key: pkt.Key(), Action: cache.Action{Drop: true}}},
		}, nil
	}
	return pkt.Route(dst, nil, wire.Addr{}), nil
}
