// Package groupfan is the group machinery shared by the multipoint
// services (pub/sub, multicast, anycast; §6.2). All three use one
// membership model:
//
//   - a host joins a group at its first-hop SN with an owner-signed
//     authorization (or under an open statement) that the SN checks
//     against the global lookup service;
//   - a host registers at its first-hop SN before it sends, and the first
//     sender of a group registers the SN itself with the edomain core;
//   - the host keeps what it joined and registered, and re-issues it at a
//     new SN after an SN failure (§3.3's host-driven state
//     reconstruction).
//
// Groups holds one service's group state on one SN and serves the shared
// control ops; Client is the host side. Both speak one header codec,
// (kind, group), in the ILP header data. A service module keeps only its
// delivery policy: multicast delivers to every member, anycast to the
// nearest one, pub/sub retains and replays.
package groupfan

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"interedge/internal/edomain"
	"interedge/internal/lookup"
	"interedge/internal/peering"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Packet kinds, carried in the first byte of the ILP header data.
const (
	KindSend    byte = iota // host → its first-hop SN
	KindDeliver             // SN → member host
	KindIntra               // SN → member SN in the same edomain
	KindInter               // SN → a remote member edomain's gateway, via transit
)

// Errors shared by the group services.
var (
	ErrBadHeader   = errors.New("groupfan: malformed header data")
	ErrNotSender   = errors.New("groupfan: host is not a registered sender for the group")
	ErrUnknownPeer = errors.New("groupfan: request from host without verified identity")
	ErrStopped     = errors.New("groupfan: service stopped")
)

// HeaderData encodes (kind, group) as ILP header data.
func HeaderData(kind byte, group string) []byte {
	return append([]byte{kind}, group...)
}

// ParseHeader splits ILP header data into kind and group.
func ParseHeader(data []byte) (byte, string, error) {
	if len(data) < 1 {
		return 0, "", ErrBadHeader
	}
	return data[0], string(data[1:]), nil
}

// Args is the body of every group control op. Auth matters only to join;
// Replay only to pub/sub's join.
type Args struct {
	Group  string `json:"group"`
	Auth   []byte `json:"auth,omitempty"`
	Replay bool   `json:"replay,omitempty"`
}

// addrSets maps a group to a set of host addresses.
type addrSets map[string]map[wire.Addr]struct{}

func (s addrSets) add(group string, a wire.Addr) {
	if s[group] == nil {
		s[group] = make(map[wire.Addr]struct{})
	}
	s[group][a] = struct{}{}
}

// remove drops a from the group's set, and the set once it is empty.
func (s addrSets) remove(group string, a wire.Addr) {
	delete(s[group], a)
	if len(s[group]) == 0 {
		delete(s, group)
	}
}

// coreRegisterSender is the SN-level sender registration with the edomain
// core; tests count calls through it.
var coreRegisterSender = (*edomain.Core).RegisterSender

// Groups is one group service's state on one SN: the member hosts and
// sender hosts attached here, and the SN's own sender registrations with
// the edomain core. A module embeds it to get the shared control ops
// (HandleControl) and the release of its registrations (Stop).
type Groups struct {
	svc    wire.ServiceID
	core   *edomain.Core
	fabric *peering.Fabric
	global *lookup.Service

	// OnJoin, when set, runs after every accepted join. Set it before the
	// module is registered.
	OnJoin func(env sn.Env, src wire.Addr, a Args)

	mu      sync.Mutex
	members addrSets
	senders addrSets

	regMu    sync.Mutex        // serializes SN-level registration and Stop
	snSender map[string]func() // group → cancel of the SN-level registration
	stopped  bool
}

// New creates the group state of service svc on one SN. fabric may be nil
// in single-edomain deployments.
func New(svc wire.ServiceID, core *edomain.Core, fabric *peering.Fabric, global *lookup.Service) *Groups {
	return &Groups{
		svc:      svc,
		core:     core,
		fabric:   fabric,
		global:   global,
		members:  make(addrSets),
		senders:  make(addrSets),
		snSender: make(map[string]func()),
	}
}

// HandleControl implements sn.ControlHandler with the ops join, leave,
// register_sender and unregister_sender.
func (g *Groups) HandleControl(env sn.Env, src wire.Addr, op string, args []byte) ([]byte, error) {
	var a Args
	if err := json.Unmarshal(args, &a); err != nil {
		return nil, fmt.Errorf("%s: bad %s args: %w", g.svc, op, err)
	}
	switch op {
	case "join":
		return nil, g.Join(env, src, a)
	case "leave":
		return nil, g.Leave(env, src, a.Group)
	case "register_sender":
		return nil, g.RegisterSender(env, src, a.Group)
	case "unregister_sender":
		g.UnregisterSender(src, a.Group)
		return nil, nil
	default:
		return nil, fmt.Errorf("%s: unknown op %q", g.svc, op)
	}
}

// Join admits src to a.Group: its pipe identity must carry the group
// owner's authorization ("these messages must have a signature from the
// owner authorizing them to join", §6.2). The SN then records the member
// and reports it to the edomain core.
func (g *Groups) Join(env sn.Env, src wire.Addr, a Args) error {
	identity, ok := env.PeerIdentity(src)
	if !ok {
		return ErrUnknownPeer
	}
	if err := g.global.ValidateJoin(lookup.GroupID(a.Group), identity, a.Auth); err != nil {
		return fmt.Errorf("%s: join rejected: %w", g.svc, err)
	}
	g.mu.Lock()
	g.members.add(a.Group, src)
	g.mu.Unlock()
	if err := g.core.JoinGroup(lookup.GroupID(a.Group), env.LocalAddr(), src); err != nil {
		return err
	}
	if g.OnJoin != nil {
		g.OnJoin(env, src, a)
	}
	return nil
}

// Leave removes src from the group.
func (g *Groups) Leave(env sn.Env, src wire.Addr, group string) error {
	g.mu.Lock()
	g.members.remove(group, src)
	g.mu.Unlock()
	return g.core.LeaveGroup(lookup.GroupID(group), env.LocalAddr(), src)
}

// RegisterSender records src as a sender to group ("before a host can
// send to a group it must first inform its first-hop SN", §6.2). The
// group's first sender here also registers this SN with the edomain core;
// registrations are serialized, so concurrent first senders make one.
func (g *Groups) RegisterSender(env sn.Env, src wire.Addr, group string) error {
	g.regMu.Lock()
	defer g.regMu.Unlock()
	if g.stopped {
		return ErrStopped
	}
	if g.snSender[group] == nil {
		_, events, cancel, err := coreRegisterSender(g.core, lookup.GroupID(group), env.LocalAddr())
		if err != nil {
			return fmt.Errorf("%s: SN sender registration: %w", g.svc, err)
		}
		// Fan-out reads MemberSNs live; draining the member watch keeps
		// the core's notifier unblocked.
		go func() {
			for range events {
			}
		}()
		g.snSender[group] = cancel
	}
	g.mu.Lock()
	g.senders.add(group, src)
	g.mu.Unlock()
	return nil
}

// UnregisterSender forgets src as a sender to group. The SN-level
// registration stays until Stop.
func (g *Groups) UnregisterSender(src wire.Addr, group string) {
	g.mu.Lock()
	g.senders.remove(group, src)
	g.mu.Unlock()
}

// IsSender reports whether src registered to send to group.
func (g *Groups) IsSender(group string, src wire.Addr) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.senders[group][src]
	return ok
}

// Members returns the group's member hosts attached to this SN, in
// address order.
func (g *Groups) Members(group string) []wire.Addr {
	g.mu.Lock()
	out := make([]wire.Addr, 0, len(g.members[group]))
	for h := range g.members[group] {
		out = append(out, h)
	}
	g.mu.Unlock()
	slices.SortFunc(out, wire.Addr.Compare)
	return out
}

// Stop implements sn.Stopper: it cancels every SN-level sender
// registration, once, and refuses later ones.
func (g *Groups) Stop() error {
	g.regMu.Lock()
	defer g.regMu.Unlock()
	g.stopped = true
	for group, cancel := range g.snSender {
		cancel()
		delete(g.snSender, group)
	}
	return nil
}

// Admit parses a group packet's header. It fails on a malformed header,
// on a kind a host must not send to an SN, and on a send from a host that
// has not registered as a sender.
func (g *Groups) Admit(pkt *sn.Packet) (kind byte, group string, err error) {
	kind, group, err = ParseHeader(pkt.Hdr.Data)
	switch {
	case err != nil:
	case kind == KindSend && !g.IsSender(group, pkt.Src):
		err = ErrNotSender
	case kind != KindSend && kind != KindIntra && kind != KindInter:
		err = fmt.Errorf("%s: unexpected kind %d at SN", g.svc, kind)
	}
	return kind, group, err
}

// Header is the ILP header of a group packet of this service.
func (g *Groups) Header(kind byte, group string, conn wire.ConnectionID) wire.ILPHeader {
	return wire.ILPHeader{Service: g.svc, Conn: conn, Data: HeaderData(kind, group)}
}

// Spread carries payload to the group's other member SNs in this edomain
// as a KindIntra copy and, when inter is set, into each remote member
// edomain through its gateway SN as a KindInter copy (peering transit;
// the remote-member mirror is filled by the SN's sender registration).
// Each copy is best effort: a failure is logged and the spread goes on.
func (g *Groups) Spread(env sn.Env, group string, conn wire.ConnectionID, payload []byte, inter bool) {
	gid := lookup.GroupID(group)
	local := env.LocalAddr()
	hdr := g.Header(KindIntra, group, conn)
	for _, member := range g.core.MemberSNs(gid) {
		if member == local {
			continue
		}
		if err := env.Send(member, &hdr, payload); err != nil {
			env.Logf("%s: spread to %s: %v", g.svc, member, err)
		}
	}
	if !inter || g.fabric == nil {
		return
	}
	hdr = g.Header(KindInter, group, conn)
	for _, remote := range g.core.RemoteMemberEdomains(gid) {
		gw, err := g.fabric.RemoteGatewayOf(g.core.ID(), remote)
		if err == nil {
			err = peering.SendTransit(env, g.fabric, gw, local, &hdr, payload)
		}
		if err != nil {
			env.Logf("%s: spread to edomain %s: %v", g.svc, remote, err)
		}
	}
}
