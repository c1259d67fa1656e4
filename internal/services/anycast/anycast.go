// Package anycast implements InterEdge anycast delivery (§6.2): a packet
// sent to a group reaches exactly one member, preferring members attached
// to the ingress SN, then members elsewhere in the edomain, then the
// nearest remote member edomain. Membership and sender registration are
// groupfan's.
//
// Once a member is chosen for a flow, the SN installs a decision-cache
// rule so the flow sticks to that member on the fast path (anycast
// affinity) until the entry is evicted or invalidated.
package anycast

import (
	"errors"
	"slices"

	"interedge/internal/edomain"
	"interedge/internal/host"
	"interedge/internal/lookup"
	"interedge/internal/peering"
	"interedge/internal/services/groupfan"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// ErrNoMembers is returned for a packet to a group without members.
var ErrNoMembers = errors.New("anycast: group has no members")

// Module is the anycast service module.
type Module struct {
	*groupfan.Groups
	core   *edomain.Core
	fabric *peering.Fabric
}

// New creates the anycast module.
func New(core *edomain.Core, fabric *peering.Fabric, global *lookup.Service) *Module {
	return &Module{
		Groups: groupfan.New(wire.SvcAnycast, core, fabric, global),
		core:   core,
		fabric: fabric,
	}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcAnycast }

// Name implements sn.Module.
func (*Module) Name() string { return "anycast" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// HandlePacket implements sn.Module. It picks one member by proximity:
// a member host attached to this SN, else another member SN in this
// edomain, else the nearest remote member edomain.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	_, group, err := m.Admit(pkt)
	if err != nil {
		return sn.Decision{}, err
	}
	if members := m.Members(group); len(members) > 0 {
		return m.pin(pkt, members[0], groupfan.KindDeliver, group)
	}
	local := env.LocalAddr()
	gid := lookup.GroupID(group)
	for _, snAddr := range m.core.MemberSNs(gid) {
		if snAddr != local {
			return m.pin(pkt, snAddr, groupfan.KindIntra, group)
		}
	}
	if m.fabric != nil {
		if remotes := m.core.RemoteMemberEdomains(gid); len(remotes) > 0 {
			gw, err := m.fabric.RemoteGatewayOf(m.core.ID(), slices.Min(remotes))
			if err != nil {
				return sn.Decision{}, err
			}
			hdr := m.Header(groupfan.KindInter, group, pkt.Hdr.Conn)
			return peering.TransitDecision(m.fabric, local, gw, pkt, &hdr)
		}
	}
	return sn.Decision{}, ErrNoMembers
}

// pin forwards pkt to dst and installs the rule that keeps its flow there.
func (m *Module) pin(pkt *sn.Packet, dst wire.Addr, kind byte, group string) (sn.Decision, error) {
	hdr := m.Header(kind, group, pkt.Hdr.Conn)
	enc := pkt.RewriteBuf(hdr.EncodedSize())
	if _, err := hdr.SerializeTo(enc); err != nil {
		return sn.Decision{}, err
	}
	return pkt.Route(dst, enc, wire.Addr{}), nil
}

// Handler receives anycast deliveries.
type Handler = groupfan.Handler

// Client is the host-side anycast logic.
type Client struct{ *groupfan.Client }

// NewClient attaches anycast client logic to a host.
func NewClient(h *host.Host) *Client {
	return &Client{groupfan.NewClient(h, wire.SvcAnycast)}
}

// Join joins an anycast group as a member.
func (c *Client) Join(group string, auth []byte, fn Handler) error {
	return c.Client.Join(groupfan.Args{Group: group, Auth: auth}, fn)
}
