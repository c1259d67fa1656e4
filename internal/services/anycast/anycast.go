// Package anycast implements InterEdge anycast delivery (§6.2): a packet
// sent to a group reaches exactly one member, preferring members attached
// to the ingress SN, then members elsewhere in the edomain, then the
// nearest remote member edomain. Joins carry owner-signed authorizations;
// senders register before sending.
//
// Once a member is chosen for a flow, the SN installs a decision-cache
// rule so the flow sticks to that member on the fast path (anycast
// affinity) until the entry is evicted or invalidated.
package anycast

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"interedge/internal/edomain"
	"interedge/internal/host"
	"interedge/internal/lookup"
	"interedge/internal/peering"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// Packet kinds in the first byte of header data.
const (
	kindSend    byte = iota // host → first-hop SN
	kindForward             // SN → chosen SN (intra-edomain or via transit)
	kindDeliver             // SN → chosen member host
)

// Errors returned by the module.
var (
	ErrNotSender   = errors.New("anycast: host is not a registered sender")
	ErrNoMembers   = errors.New("anycast: group has no members")
	ErrBadHeader   = errors.New("anycast: malformed header data")
	ErrUnknownPeer = errors.New("anycast: request from host without verified identity")
)

// HeaderData encodes (kind, group).
func HeaderData(kind byte, group string) []byte {
	return append([]byte{kind}, group...)
}

func parseHeader(data []byte) (byte, string, error) {
	if len(data) < 1 {
		return 0, "", ErrBadHeader
	}
	return data[0], string(data[1:]), nil
}

// Module is the anycast service module.
type Module struct {
	core   *edomain.Core
	fabric *peering.Fabric
	global *lookup.Service

	mu       sync.Mutex
	members  map[string]map[wire.Addr]struct{}
	senders  map[string]map[wire.Addr]struct{}
	snSender map[string]func()
}

// New creates the anycast module.
func New(core *edomain.Core, fabric *peering.Fabric, global *lookup.Service) *Module {
	return &Module{
		core:     core,
		fabric:   fabric,
		global:   global,
		members:  make(map[string]map[wire.Addr]struct{}),
		senders:  make(map[string]map[wire.Addr]struct{}),
		snSender: make(map[string]func()),
	}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcAnycast }

// Name implements sn.Module.
func (*Module) Name() string { return "anycast" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// Stop implements sn.Stopper.
func (m *Module) Stop() error {
	m.mu.Lock()
	cancels := make([]func(), 0, len(m.snSender))
	for _, c := range m.snSender {
		cancels = append(cancels, c)
	}
	m.snSender = make(map[string]func())
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return nil
}

type joinArgs struct {
	Group string `json:"group"`
	Auth  []byte `json:"auth,omitempty"`
}

type groupArgs struct {
	Group string `json:"group"`
}

// HandleControl implements sn.ControlHandler: join, leave, register_sender.
func (m *Module) HandleControl(env sn.Env, src wire.Addr, op string, args []byte) ([]byte, error) {
	switch op {
	case "join":
		var a joinArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		identity, ok := env.PeerIdentity(src)
		if !ok {
			return nil, ErrUnknownPeer
		}
		if err := m.global.ValidateJoin(lookup.GroupID(a.Group), identity, a.Auth); err != nil {
			return nil, fmt.Errorf("anycast: join rejected: %w", err)
		}
		m.mu.Lock()
		if m.members[a.Group] == nil {
			m.members[a.Group] = make(map[wire.Addr]struct{})
		}
		m.members[a.Group][src] = struct{}{}
		m.mu.Unlock()
		return nil, m.core.JoinGroup(lookup.GroupID(a.Group), env.LocalAddr(), src)

	case "leave":
		var a groupArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		m.mu.Lock()
		if hs, ok := m.members[a.Group]; ok {
			delete(hs, src)
		}
		m.mu.Unlock()
		return nil, m.core.LeaveGroup(lookup.GroupID(a.Group), env.LocalAddr(), src)

	case "register_sender":
		var a groupArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return nil, m.registerSender(env, src, a.Group)

	default:
		return nil, fmt.Errorf("anycast: unknown op %q", op)
	}
}

func (m *Module) registerSender(env sn.Env, src wire.Addr, group string) error {
	m.mu.Lock()
	if m.senders[group] == nil {
		m.senders[group] = make(map[wire.Addr]struct{})
	}
	m.senders[group][src] = struct{}{}
	needSN := m.snSender[group] == nil
	m.mu.Unlock()
	if !needSN {
		return nil
	}
	_, events, cancel, err := m.core.RegisterSender(lookup.GroupID(group), env.LocalAddr())
	if err != nil {
		return err
	}
	go func() {
		for range events {
		}
	}()
	m.mu.Lock()
	if m.snSender[group] != nil {
		m.mu.Unlock()
		cancel()
		return nil
	}
	m.snSender[group] = cancel
	m.mu.Unlock()
	return nil
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	kind, group, err := parseHeader(pkt.Hdr.Data)
	if err != nil {
		return sn.Decision{}, err
	}
	switch kind {
	case kindSend:
		m.mu.Lock()
		_, isSender := m.senders[group][pkt.Src]
		m.mu.Unlock()
		if !isSender {
			return sn.Decision{}, ErrNotSender
		}
		return m.route(env, group, pkt)
	case kindForward:
		return m.route(env, group, pkt)
	default:
		return sn.Decision{}, fmt.Errorf("anycast: unexpected kind %d", kind)
	}
}

// route picks one member by proximity: local host member → member SN in
// this edomain → nearest remote member edomain.
func (m *Module) route(env sn.Env, group string, pkt *sn.Packet) (sn.Decision, error) {
	// 1. Local member host attached to this SN.
	if target, ok := m.localMember(group); ok {
		hdr := wire.ILPHeader{Service: wire.SvcAnycast, Conn: pkt.Hdr.Conn, Data: HeaderData(kindDeliver, group)}
		enc, err := hdr.Encode()
		if err != nil {
			return sn.Decision{}, err
		}
		return sn.Decision{
			Forwards: []sn.Forward{{Dst: target, Hdr: &hdr}},
			Rules: []sn.Rule{{
				Key:    pkt.Key(),
				Action: cache.Action{Forward: []wire.Addr{target}, RewriteHeader: enc},
			}},
		}, nil
	}
	local := env.LocalAddr()
	// 2. Another member SN inside this edomain.
	for _, snAddr := range m.core.MemberSNs(lookup.GroupID(group)) {
		if snAddr == local {
			continue
		}
		hdr := wire.ILPHeader{Service: wire.SvcAnycast, Conn: pkt.Hdr.Conn, Data: HeaderData(kindForward, group)}
		enc, err := hdr.Encode()
		if err != nil {
			return sn.Decision{}, err
		}
		return sn.Decision{
			Forwards: []sn.Forward{{Dst: snAddr, Hdr: &hdr}},
			Rules: []sn.Rule{{
				Key:    pkt.Key(),
				Action: cache.Action{Forward: []wire.Addr{snAddr}, RewriteHeader: enc},
			}},
		}, nil
	}
	// 3. Nearest remote member edomain (deterministic: lowest ID).
	if m.fabric != nil {
		remotes := m.core.RemoteMemberEdomains(lookup.GroupID(group))
		if len(remotes) > 0 {
			sort.Slice(remotes, func(i, j int) bool { return remotes[i] < remotes[j] })
			gw, err := m.fabric.RemoteGatewayOf(m.core.ID(), remotes[0])
			if err != nil {
				return sn.Decision{}, err
			}
			hdr := wire.ILPHeader{Service: wire.SvcAnycast, Conn: pkt.Hdr.Conn, Data: HeaderData(kindForward, group)}
			return peering.TransitDecision(m.fabric, local, gw, pkt, &hdr)
		}
	}
	return sn.Decision{}, ErrNoMembers
}

// localMember returns a deterministic local member of the group.
func (m *Module) localMember(group string) (wire.Addr, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs := m.members[group]
	if len(hs) == 0 {
		return wire.Addr{}, false
	}
	all := make([]wire.Addr, 0, len(hs))
	for h := range hs {
		all = append(all, h)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
	return all[0], true
}

// --- Host-side client -------------------------------------------------------

// Handler receives anycast deliveries.
type Handler func(group string, payload []byte)

// Client is the host-side anycast logic.
type Client struct {
	h *host.Host

	mu      sync.Mutex
	conn    *host.Conn
	handler map[string]Handler
}

// NewClient attaches anycast client logic to a host.
func NewClient(h *host.Host) *Client {
	c := &Client{h: h, handler: make(map[string]Handler)}
	h.OnService(wire.SvcAnycast, c.onMessage)
	return c
}

func (c *Client) onMessage(msg host.Message) {
	kind, group, err := parseHeader(msg.Hdr.Data)
	if err != nil || kind != kindDeliver {
		return
	}
	c.mu.Lock()
	fn, ok := c.handler[group]
	c.mu.Unlock()
	if ok {
		fn(group, msg.Payload)
	}
}

// Join joins an anycast group as a member.
func (c *Client) Join(group string, auth []byte, fn Handler) error {
	c.mu.Lock()
	c.handler[group] = fn
	c.mu.Unlock()
	if _, err := c.h.InvokeFirstHop(wire.SvcAnycast, "join", joinArgs{Group: group, Auth: auth}); err != nil {
		c.mu.Lock()
		delete(c.handler, group)
		c.mu.Unlock()
		return err
	}
	return nil
}

// Leave leaves a group.
func (c *Client) Leave(group string) error {
	c.mu.Lock()
	delete(c.handler, group)
	c.mu.Unlock()
	_, err := c.h.InvokeFirstHop(wire.SvcAnycast, "leave", groupArgs{Group: group})
	return err
}

// RegisterSender registers intent to send to a group.
func (c *Client) RegisterSender(group string) error {
	_, err := c.h.InvokeFirstHop(wire.SvcAnycast, "register_sender", groupArgs{Group: group})
	return err
}

// Send delivers a payload to exactly one group member.
func (c *Client) Send(group string, payload []byte) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		var err error
		conn, err = c.h.NewConn(wire.SvcAnycast)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.conn = conn
		c.mu.Unlock()
	}
	return conn.Send(HeaderData(kindSend, group), payload)
}
