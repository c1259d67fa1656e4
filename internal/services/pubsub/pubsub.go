// Package pubsub implements the InterEdge pub/sub service (§6.2): hosts
// subscribe to topics at their first-hop SN, senders register before
// publishing, and SNs fan messages out to member SNs in their edomain and,
// through the peering fabric, to every remote member edomain. Membership,
// sender registration and the host-side state reconstruction of §3.3 are
// groupfan's; this package adds retention: an SN keeps the last few
// messages per topic and replays them to a subscriber that asks.
package pubsub

import (
	"slices"
	"sync"

	"interedge/internal/edomain"
	"interedge/internal/lookup"
	"interedge/internal/peering"
	"interedge/internal/services/groupfan"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// RetainedPerTopic is the number of recent messages an SN keeps per topic
// for replay to late subscribers.
const RetainedPerTopic = 32

// Module is the pub/sub service module for one SN.
type Module struct {
	*groupfan.Groups

	mu       sync.Mutex
	retained map[string][][]byte
}

// New creates the pub/sub module. fabric may be nil in single-edomain
// deployments.
func New(core *edomain.Core, fabric *peering.Fabric, global *lookup.Service) *Module {
	m := &Module{
		Groups:   groupfan.New(wire.SvcPubSub, core, fabric, global),
		retained: make(map[string][][]byte),
	}
	m.OnJoin = m.replay
	return m
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcPubSub }

// Name implements sn.Module.
func (*Module) Name() string { return "pubsub" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// replay sends a new subscriber that asked for it the topic's retained
// messages.
func (m *Module) replay(env sn.Env, src wire.Addr, a groupfan.Args) {
	if !a.Replay {
		return
	}
	m.mu.Lock()
	msgs := slices.Clone(m.retained[a.Group])
	m.mu.Unlock()
	hdr := m.Header(groupfan.KindDeliver, a.Group, 0)
	for _, msg := range msgs {
		if err := env.Send(src, &hdr, msg); err != nil {
			env.Logf("pubsub: replay to %s failed: %v", src, err)
		}
	}
}

// HandlePacket implements sn.Module: retain, deliver to local subscribers,
// and spread on. A host's publish goes to the other member SNs here and in
// remote edomains; a copy that came in from another edomain goes to this
// edomain's other member SNs.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	kind, topic, err := m.Admit(pkt)
	if err != nil {
		return sn.Decision{}, err
	}
	m.retain(topic, pkt.Payload)
	hdr := m.Header(groupfan.KindDeliver, topic, 0)
	for _, h := range m.Members(topic) {
		if err := env.Send(h, &hdr, pkt.Payload); err != nil {
			env.Logf("pubsub: deliver to %s failed: %v", h, err)
		}
	}
	if kind != groupfan.KindIntra {
		m.Spread(env, topic, pkt.Hdr.Conn, pkt.Payload, kind == groupfan.KindSend)
	}
	return sn.Decision{}, nil
}

func (m *Module) retain(topic string, msg []byte) {
	cp := append([]byte(nil), msg...)
	m.mu.Lock()
	defer m.mu.Unlock()
	r := append(m.retained[topic], cp)
	if len(r) > RetainedPerTopic {
		r = r[len(r)-RetainedPerTopic:]
	}
	m.retained[topic] = r
}
