// Package multicast implements InterEdge multicast packet delivery (§6.2):
// an SN fans a packet out to every member host — through member SNs within
// the edomain and into remote member edomains via the peering fabric.
// Membership and sender registration are groupfan's.
//
// Unlike pub/sub (message-oriented, with retained replay), multicast is a
// raw packet service: payloads are forwarded as-is with the sender's
// connection ID preserved, and nothing is retained.
package multicast

import (
	"interedge/internal/edomain"
	"interedge/internal/host"
	"interedge/internal/lookup"
	"interedge/internal/peering"
	"interedge/internal/services/groupfan"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Module is the multicast service module.
type Module struct{ *groupfan.Groups }

// New creates the multicast module.
func New(core *edomain.Core, fabric *peering.Fabric, global *lookup.Service) *Module {
	return &Module{groupfan.New(wire.SvcMulticast, core, fabric, global)}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcMulticast }

// Name implements sn.Module.
func (*Module) Name() string { return "multicast" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// HandlePacket implements sn.Module: forward to every local member but the
// sender, and spread on. A host's send goes to the other member SNs here
// and in remote edomains; a copy that came in from another edomain goes to
// this edomain's other member SNs.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	kind, group, err := m.Admit(pkt)
	if err != nil {
		return sn.Decision{}, err
	}
	if kind != groupfan.KindIntra {
		m.Spread(env, group, pkt.Hdr.Conn, pkt.Payload, kind == groupfan.KindSend)
	}
	var d sn.Decision
	hdr := m.Header(groupfan.KindDeliver, group, pkt.Hdr.Conn)
	for _, h := range m.Members(group) {
		if h == pkt.Src {
			continue // don't echo to the sending member
		}
		hcopy := hdr
		d.Forwards = append(d.Forwards, sn.Forward{Dst: h, Hdr: &hcopy})
	}
	return d, nil
}

// Handler receives one multicast delivery.
type Handler = groupfan.Handler

// Client is the host-side multicast logic.
type Client struct{ *groupfan.Client }

// NewClient attaches multicast client logic to a host.
func NewClient(h *host.Host) *Client {
	return &Client{groupfan.NewClient(h, wire.SvcMulticast)}
}

// Join joins a group (auth nil for open groups).
func (c *Client) Join(group string, auth []byte, fn Handler) error {
	return c.Client.Join(groupfan.Args{Group: group, Auth: auth}, fn)
}
