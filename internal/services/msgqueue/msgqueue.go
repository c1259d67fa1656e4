// Package msgqueue implements a geo-distributed message queue (§6.2
// specialty services: "message queues such as Kafka … Cloudflare Queues
// has tried to address this change in workloads by proposing a
// geo-distributed message queuing service running on its edge. The
// InterEdge could provide such a service in an interconnected manner").
//
// Topics are created at a home SN with an optional set of mirror SNs; the
// home assigns contiguous offsets and pushes appends to mirrors, so
// consumers fetch from whichever replica is nearest. Consumer groups track
// committed offsets per replica.
package msgqueue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Packet kinds in the first byte of header data.
const (
	kindProduce byte = iota // host → home SN (data: kind ‖ topic; payload: message)
	kindMirror              // home SN → mirror SN (data: kind ‖ offset(8) ‖ topic)
)

// Errors returned by the service.
var (
	ErrBadHeader    = errors.New("msgqueue: malformed header data")
	ErrUnknownTopic = errors.New("msgqueue: unknown topic")
	ErrNotHome      = errors.New("msgqueue: this SN is not the topic's home")
)

// Message is one queued message.
type Message struct {
	Offset  uint64 `json:"offset"`
	Payload []byte `json:"payload"`
}

type topicState struct {
	home      bool
	mirrors   []wire.Addr
	baseOff   uint64 // offset of msgs[0]
	msgs      []Message
	retention int
	offsets   map[string]uint64 // consumer group -> next offset
}

// Module is the message-queue service for one SN.
type Module struct {
	mu     sync.Mutex
	topics map[string]*topicState
}

// New creates the module.
func New() *Module {
	return &Module{topics: make(map[string]*topicState)}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcMsgQueue }

// Name implements sn.Module.
func (*Module) Name() string { return "msgqueue" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// CreateArgs are the args of create and create_mirror.
type CreateArgs struct {
	Topic     string      `json:"topic"`
	Mirrors   []wire.Addr `json:"mirrors,omitempty"`
	Retention int         `json:"retention,omitempty"` // max messages kept
}

// FetchArgs are the args of fetch.
type FetchArgs struct {
	Topic string `json:"topic"`
	Group string `json:"group"`
	Max   int    `json:"max,omitempty"`
}

// FetchReply is the reply of fetch.
type FetchReply struct {
	Messages []Message `json:"messages"`
	Next     uint64    `json:"next"`
}

// CommitArgs are the args of commit.
type CommitArgs struct {
	Topic  string `json:"topic"`
	Group  string `json:"group"`
	Offset uint64 `json:"offset"`
}

// The service's control ops. A host creates a topic at its home SN with
// create; the home SN sends create_mirror to each mirror SN itself.
var (
	OpCreate       = control.NewOp[CreateArgs, control.None](wire.SvcMsgQueue, "create")
	OpCreateMirror = control.NewOp[CreateArgs, control.None](wire.SvcMsgQueue, "create_mirror")
	OpFetch        = control.NewOp[FetchArgs, FetchReply](wire.SvcMsgQueue, "fetch")
	OpCommit       = control.NewOp[CommitArgs, control.None](wire.SvcMsgQueue, "commit")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpCreate, m.create),
		sn.Handle(OpCreateMirror, func(_ sn.Env, _ wire.Addr, a CreateArgs) (control.None, error) {
			m.mu.Lock()
			if _, dup := m.topics[a.Topic]; !dup {
				m.topics[a.Topic] = &topicState{
					retention: a.Retention,
					offsets:   make(map[string]uint64),
				}
			}
			m.mu.Unlock()
			return control.None{}, nil
		}),
		sn.Handle(OpFetch, m.fetch),
		sn.Handle(OpCommit, func(_ sn.Env, _ wire.Addr, a CommitArgs) (control.None, error) {
			m.mu.Lock()
			defer m.mu.Unlock()
			ts, ok := m.topics[a.Topic]
			if !ok {
				return control.None{}, ErrUnknownTopic
			}
			if a.Offset > ts.offsets[a.Group] {
				ts.offsets[a.Group] = a.Offset
			}
			return control.None{}, nil
		}),
	}
}

// create homes a topic here and tells each mirror SN to host a replica.
// The mirrors' replies come back as control packets this SN drops.
func (m *Module) create(env sn.Env, _ wire.Addr, a CreateArgs) (control.None, error) {
	if !wire.AllValid(a.Mirrors) {
		return control.None{}, errors.New("msgqueue: mirror with no address")
	}
	if a.Retention == 0 {
		a.Retention = 4096
	}
	m.mu.Lock()
	if _, dup := m.topics[a.Topic]; dup {
		m.mu.Unlock()
		return control.None{}, fmt.Errorf("msgqueue: topic %q exists", a.Topic)
	}
	m.topics[a.Topic] = &topicState{
		home: true, mirrors: a.Mirrors, retention: a.Retention,
		offsets: make(map[string]uint64),
	}
	m.mu.Unlock()
	req, err := OpCreateMirror.Request(CreateArgs{Topic: a.Topic, Retention: a.Retention})
	if err != nil {
		return control.None{}, err
	}
	for _, mirror := range a.Mirrors {
		hdr := wire.ILPHeader{Service: wire.SvcControl}
		if err := env.Send(mirror, &hdr, req); err != nil {
			env.Logf("msgqueue: mirror setup %s: %v", mirror, err)
		}
	}
	return control.None{}, nil
}

// fetch returns up to a.Max messages from the group's committed offset.
func (m *Module) fetch(_ sn.Env, _ wire.Addr, a FetchArgs) (FetchReply, error) {
	if a.Max == 0 {
		a.Max = 64
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.topics[a.Topic]
	if !ok {
		return FetchReply{}, ErrUnknownTopic
	}
	start := ts.offsets[a.Group]
	if start < ts.baseOff {
		start = ts.baseOff // retention already dropped older messages
	}
	var out []Message
	for i := start; i < ts.baseOff+uint64(len(ts.msgs)) && len(out) < a.Max; i++ {
		out = append(out, ts.msgs[i-ts.baseOff])
	}
	return FetchReply{Messages: out, Next: start + uint64(len(out))}, nil
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) < 1 {
		return sn.Decision{}, ErrBadHeader
	}
	switch pkt.Hdr.Data[0] {
	case kindProduce:
		topic := string(pkt.Hdr.Data[1:])
		m.mu.Lock()
		ts, ok := m.topics[topic]
		if !ok {
			m.mu.Unlock()
			return sn.Decision{}, ErrUnknownTopic
		}
		if !ts.home {
			m.mu.Unlock()
			return sn.Decision{}, ErrNotHome
		}
		off := ts.baseOff + uint64(len(ts.msgs))
		ts.appendLocked(Message{Offset: off, Payload: append([]byte(nil), pkt.Payload...)})
		mirrors := append([]wire.Addr(nil), ts.mirrors...)
		m.mu.Unlock()

		// Replicate to mirrors.
		var d sn.Decision
		for _, mirror := range mirrors {
			data := make([]byte, 9, 9+len(topic))
			data[0] = kindMirror
			binary.BigEndian.PutUint64(data[1:9], off)
			data = append(data, topic...)
			hdr := wire.ILPHeader{Service: wire.SvcMsgQueue, Conn: pkt.Hdr.Conn, Data: data}
			d.Forwards = append(d.Forwards, sn.Forward{Dst: mirror, Hdr: &hdr})
		}
		return d, nil

	case kindMirror:
		if len(pkt.Hdr.Data) < 9 {
			return sn.Decision{}, ErrBadHeader
		}
		off := binary.BigEndian.Uint64(pkt.Hdr.Data[1:9])
		topic := string(pkt.Hdr.Data[9:])
		m.mu.Lock()
		defer m.mu.Unlock()
		ts, ok := m.topics[topic]
		if !ok {
			return sn.Decision{}, ErrUnknownTopic
		}
		// Idempotent, in-order replication from the single home.
		if off == ts.baseOff+uint64(len(ts.msgs)) {
			ts.appendLocked(Message{Offset: off, Payload: append([]byte(nil), pkt.Payload...)})
		}
		return sn.Decision{}, nil

	default:
		return sn.Decision{}, fmt.Errorf("msgqueue: unexpected kind %d", pkt.Hdr.Data[0])
	}
}

// appendLocked appends a message, enforcing retention. Caller holds mu.
func (ts *topicState) appendLocked(msg Message) {
	ts.msgs = append(ts.msgs, msg)
	for len(ts.msgs) > ts.retention {
		ts.msgs = ts.msgs[1:]
		ts.baseOff++
	}
}

// Depth reports a topic's queue depth at this SN (tests).
func (m *Module) Depth(topic string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts, ok := m.topics[topic]; ok {
		return len(ts.msgs)
	}
	return 0
}

// --- Client ------------------------------------------------------------------

// Client is the host-side queue API.
type Client struct {
	h *host.Host

	mu   sync.Mutex
	conn *host.Conn
}

// NewClient creates a queue client.
func NewClient(h *host.Host) *Client { return &Client{h: h} }

// CreateTopic creates a topic homed at the host's first-hop SN, mirrored
// to the given SNs.
func (c *Client) CreateTopic(topic string, mirrors []wire.Addr, retention int) error {
	_, err := OpCreate.CallFirstHop(c.h, CreateArgs{Topic: topic, Mirrors: mirrors, Retention: retention})
	return err
}

// Produce appends a message to the topic (the host's first-hop SN must be
// the topic home).
func (c *Client) Produce(topic string, payload []byte) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		var err error
		conn, err = c.h.NewConn(wire.SvcMsgQueue)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.conn = conn
		c.mu.Unlock()
	}
	return conn.Send(append([]byte{kindProduce}, topic...), payload)
}

// Fetch pulls up to max messages for a consumer group from the SN at via
// (any replica of the topic).
func (c *Client) Fetch(via wire.Addr, topic, group string, max int) ([]Message, uint64, error) {
	rep, err := OpFetch.Call(c.h, via, FetchArgs{Topic: topic, Group: group, Max: max})
	return rep.Messages, rep.Next, err
}

// Commit advances the consumer group's offset at the given replica.
func (c *Client) Commit(via wire.Addr, topic, group string, offset uint64) error {
	_, err := OpCommit.Call(c.h, via, CommitArgs{Topic: topic, Group: group, Offset: offset})
	return err
}
