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
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"sync"

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

type createArgs struct {
	Topic     string   `json:"topic"`
	Mirrors   []string `json:"mirrors,omitempty"`
	Retention int      `json:"retention,omitempty"` // max messages kept
}

type fetchArgs struct {
	Topic string `json:"topic"`
	Group string `json:"group"`
	Max   int    `json:"max,omitempty"`
}

type fetchReply struct {
	Messages []Message `json:"messages"`
	Next     uint64    `json:"next"`
}

type commitArgs struct {
	Topic  string `json:"topic"`
	Group  string `json:"group"`
	Offset uint64 `json:"offset"`
}

// HandleControl implements sn.ControlHandler: create, create_mirror,
// fetch, commit.
func (m *Module) HandleControl(env sn.Env, src wire.Addr, op string, args []byte) ([]byte, error) {
	switch op {
	case "create":
		var a createArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		if a.Retention == 0 {
			a.Retention = 4096
		}
		var mirrors []wire.Addr
		for _, ms := range a.Mirrors {
			mirror, err := netip.ParseAddr(ms)
			if err != nil {
				return nil, fmt.Errorf("msgqueue: create: mirror: %w", err)
			}
			mirrors = append(mirrors, mirror)
		}
		m.mu.Lock()
		if _, dup := m.topics[a.Topic]; dup {
			m.mu.Unlock()
			return nil, fmt.Errorf("msgqueue: topic %q exists", a.Topic)
		}
		m.topics[a.Topic] = &topicState{
			home: true, mirrors: mirrors, retention: a.Retention,
			offsets: make(map[string]uint64),
		}
		m.mu.Unlock()
		// Tell each mirror SN to host a replica.
		for _, mirror := range mirrors {
			req, _ := json.Marshal(sn.ControlRequest{
				Target: wire.SvcMsgQueue, Op: "create_mirror",
				Args: mustJSON(createArgs{Topic: a.Topic, Retention: a.Retention}),
			})
			hdr := wire.ILPHeader{Service: wire.SvcControl, Conn: 0}
			if err := env.Send(mirror, &hdr, req); err != nil {
				env.Logf("msgqueue: mirror setup %s: %v", mirror, err)
			}
		}
		return nil, nil

	case "create_mirror":
		var a createArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		m.mu.Lock()
		if _, dup := m.topics[a.Topic]; !dup {
			m.topics[a.Topic] = &topicState{
				retention: a.Retention,
				offsets:   make(map[string]uint64),
			}
		}
		m.mu.Unlock()
		return nil, nil

	case "fetch":
		var a fetchArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		if a.Max == 0 {
			a.Max = 64
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		ts, ok := m.topics[a.Topic]
		if !ok {
			return nil, ErrUnknownTopic
		}
		start := ts.offsets[a.Group]
		if start < ts.baseOff {
			start = ts.baseOff // retention already dropped older messages
		}
		var out []Message
		for i := start; i < ts.baseOff+uint64(len(ts.msgs)) && len(out) < a.Max; i++ {
			out = append(out, ts.msgs[i-ts.baseOff])
		}
		next := start + uint64(len(out))
		return json.Marshal(fetchReply{Messages: out, Next: next})

	case "commit":
		var a commitArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		ts, ok := m.topics[a.Topic]
		if !ok {
			return nil, ErrUnknownTopic
		}
		if a.Offset > ts.offsets[a.Group] {
			ts.offsets[a.Group] = a.Offset
		}
		return nil, nil

	default:
		return nil, fmt.Errorf("msgqueue: unknown op %q", op)
	}
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
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
	ms := make([]string, len(mirrors))
	for i, m := range mirrors {
		ms[i] = m.String()
	}
	_, err := c.h.InvokeFirstHop(wire.SvcMsgQueue, "create", createArgs{Topic: topic, Mirrors: ms, Retention: retention})
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
	data, err := c.h.Invoke(via, wire.SvcMsgQueue, "fetch", fetchArgs{Topic: topic, Group: group, Max: max})
	if err != nil {
		return nil, 0, err
	}
	var rep fetchReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, 0, err
	}
	return rep.Messages, rep.Next, nil
}

// Commit advances the consumer group's offset at the given replica.
func (c *Client) Commit(via wire.Addr, topic, group string, offset uint64) error {
	_, err := c.h.Invoke(via, wire.SvcMsgQueue, "commit", commitArgs{Topic: topic, Group: group, Offset: offset})
	return err
}
