// Package ordered implements the GPS-timestamped ordered delivery service
// of §6.2: "If InterEdge requires that SNs be equipped with GPS receivers,
// it could offer a high-latency … but ordered message delivery system.
// While such a system cannot guarantee atomicity …, even ordering in the
// absence of atomicity can reduce coordination overheads."
//
// Ingress SNs stamp each message with their GPS-disciplined clock (the
// simulated GPS receiver adds a configurable skew to the node clock).
// Delivery SNs buffer messages for a reorder window and release them to
// subscribers in global timestamp order. Messages arriving after the
// window closed for their timestamp are delivered late-marked rather than
// dropped — ordering is best-effort, never atomic.
package ordered

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Packet kinds in the first byte of header data.
const (
	kindSubmit  byte = iota // host → ingress SN (data: kind ‖ channel)
	kindStamped             // ingress SN → delivery SN (data: kind ‖ ts(8) ‖ channel)
	kindDeliver             // delivery SN → subscriber (data: kind ‖ ts(8) ‖ late(1) ‖ channel)
)

// DefaultWindow is the reorder buffer window.
const DefaultWindow = 50 * time.Millisecond

// Errors returned by the service.
var (
	ErrBadHeader = errors.New("ordered: malformed header data")
)

// GPS simulates a GPS-disciplined clock: the node clock plus a fixed skew
// (real GPS clocks disagree by bounded skew; the paper's service is
// explicitly tolerant of it).
type GPS struct {
	skew time.Duration
}

// NewGPS creates a simulated GPS receiver with the given skew from true
// time.
func NewGPS(skew time.Duration) *GPS { return &GPS{skew: skew} }

// Now returns the GPS-disciplined timestamp.
func (g *GPS) Now(nodeClock time.Time) time.Time { return nodeClock.Add(g.skew) }

type stamped struct {
	ts      time.Time
	channel string
	payload []byte
	conn    wire.ConnectionID
}

type stampedHeap []stamped

func (h stampedHeap) Len() int            { return len(h) }
func (h stampedHeap) Less(i, j int) bool  { return h[i].ts.Before(h[j].ts) }
func (h stampedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stampedHeap) Push(x interface{}) { *h = append(*h, x.(stamped)) }
func (h *stampedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Module is the ordered-delivery service for one SN. Ingress stamping and
// delivery buffering both live here; a deployment typically routes
// submissions through the sender's SN (stamping) to the subscriber's SN
// (buffer + deliver).
type Module struct {
	gps    *GPS
	window time.Duration

	mu          sync.Mutex
	subscribers map[string]map[wire.Addr]struct{}
	deliverySNs map[string]map[wire.Addr]struct{} // channel -> SNs with subscribers
	buffer      stampedHeap
	lastOut     time.Time
	started     bool
	stop        chan struct{}
}

// New creates the module with the given GPS receiver and reorder window.
func New(gps *GPS, window time.Duration) *Module {
	if window == 0 {
		window = DefaultWindow
	}
	return &Module{
		gps:         gps,
		window:      window,
		subscribers: make(map[string]map[wire.Addr]struct{}),
		deliverySNs: make(map[string]map[wire.Addr]struct{}),
		stop:        make(chan struct{}),
	}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcOrdered }

// Name implements sn.Module.
func (*Module) Name() string { return "ordered" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// Start implements sn.Starter: run the release loop.
func (m *Module) Start(env sn.Env) error {
	m.mu.Lock()
	m.started = true
	m.mu.Unlock()
	go func() {
		for {
			select {
			case <-m.stop:
				return
			case <-env.After(m.window / 4):
				m.release(env)
			}
		}
	}()
	return nil
}

// Stop implements sn.Stopper.
func (m *Module) Stop() error {
	m.mu.Lock()
	if m.started {
		m.started = false
		close(m.stop)
	}
	m.mu.Unlock()
	return nil
}

// SubscribeArgs are the args of subscribe and add_peer.
type SubscribeArgs struct {
	Channel string `json:"channel"`
	// Peers lets senders learn where subscribers live; in a full
	// deployment this flows through the core/lookup machinery like
	// pub/sub. Here each ingress is told explicitly.
	Peers []wire.Addr `json:"peers,omitempty"`
}

// The service's control ops.
var (
	OpSubscribe = control.NewOp[SubscribeArgs, control.None](wire.SvcOrdered, "subscribe")
	OpAddPeer   = control.NewOp[SubscribeArgs, control.None](wire.SvcOrdered, "add_peer")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpSubscribe, func(_ sn.Env, caller wire.Addr, a SubscribeArgs) (control.None, error) {
			m.mu.Lock()
			if m.subscribers[a.Channel] == nil {
				m.subscribers[a.Channel] = make(map[wire.Addr]struct{})
			}
			m.subscribers[a.Channel][caller] = struct{}{}
			m.mu.Unlock()
			return control.None{}, nil
		}),
		sn.Handle(OpAddPeer, func(_ sn.Env, _ wire.Addr, a SubscribeArgs) (control.None, error) {
			if !wire.AllValid(a.Peers) {
				return control.None{}, errors.New("ordered: peer with no address")
			}
			m.mu.Lock()
			if m.deliverySNs[a.Channel] == nil {
				m.deliverySNs[a.Channel] = make(map[wire.Addr]struct{})
			}
			for _, p := range a.Peers {
				m.deliverySNs[a.Channel][p] = struct{}{}
			}
			m.mu.Unlock()
			return control.None{}, nil
		}),
	}
}

// HandlePacket implements sn.Module.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) < 1 {
		return sn.Decision{}, ErrBadHeader
	}
	switch pkt.Hdr.Data[0] {
	case kindSubmit:
		// Ingress: stamp with the GPS clock and relay to delivery SNs
		// (including ourselves if we host subscribers).
		channel := string(pkt.Hdr.Data[1:])
		ts := m.gps.Now(env.Now())
		data := make([]byte, 9, 9+len(channel))
		data[0] = kindStamped
		binary.BigEndian.PutUint64(data[1:9], uint64(ts.UnixNano()))
		data = append(data, channel...)

		m.mu.Lock()
		peers := make([]wire.Addr, 0, len(m.deliverySNs[channel]))
		for p := range m.deliverySNs[channel] {
			peers = append(peers, p)
		}
		hasLocal := len(m.subscribers[channel]) > 0
		m.mu.Unlock()

		var d sn.Decision
		hdr := wire.ILPHeader{Service: wire.SvcOrdered, Conn: pkt.Hdr.Conn, Data: data}
		for _, p := range peers {
			if p == env.LocalAddr() {
				continue
			}
			hcopy := hdr
			d.Forwards = append(d.Forwards, sn.Forward{Dst: p, Hdr: &hcopy})
		}
		if hasLocal {
			m.bufferStamped(ts, channel, pkt.Payload, pkt.Hdr.Conn)
		}
		return d, nil

	case kindStamped:
		if len(pkt.Hdr.Data) < 9 {
			return sn.Decision{}, ErrBadHeader
		}
		ts := time.Unix(0, int64(binary.BigEndian.Uint64(pkt.Hdr.Data[1:9])))
		channel := string(pkt.Hdr.Data[9:])
		m.bufferStamped(ts, channel, pkt.Payload, pkt.Hdr.Conn)
		return sn.Decision{}, nil

	default:
		return sn.Decision{}, fmt.Errorf("ordered: unexpected kind %d", pkt.Hdr.Data[0])
	}
}

func (m *Module) bufferStamped(ts time.Time, channel string, payload []byte, conn wire.ConnectionID) {
	m.mu.Lock()
	heap.Push(&m.buffer, stamped{
		ts: ts, channel: channel,
		payload: append([]byte(nil), payload...),
		conn:    conn,
	})
	m.mu.Unlock()
}

// release drains buffered messages whose reorder window has elapsed,
// delivering them in timestamp order. Messages stamped earlier than the
// last released timestamp are late: delivered immediately with the late
// flag set.
func (m *Module) release(env sn.Env) {
	cutoff := m.gps.Now(env.Now()).Add(-m.window)
	for {
		m.mu.Lock()
		if len(m.buffer) == 0 || m.buffer[0].ts.After(cutoff) {
			m.mu.Unlock()
			return
		}
		it := heap.Pop(&m.buffer).(stamped)
		late := it.ts.Before(m.lastOut)
		if !late {
			m.lastOut = it.ts
		}
		targets := make([]wire.Addr, 0, len(m.subscribers[it.channel]))
		for h := range m.subscribers[it.channel] {
			targets = append(targets, h)
		}
		m.mu.Unlock()

		data := make([]byte, 10, 10+len(it.channel))
		data[0] = kindDeliver
		binary.BigEndian.PutUint64(data[1:9], uint64(it.ts.UnixNano()))
		if late {
			data[9] = 1
		}
		data = append(data, it.channel...)
		hdr := wire.ILPHeader{Service: wire.SvcOrdered, Conn: it.conn, Data: data}
		for _, h := range targets {
			if err := env.Send(h, &hdr, it.payload); err != nil {
				env.Logf("ordered: deliver to %s: %v", h, err)
			}
		}
	}
}

// --- Client ------------------------------------------------------------------

// Delivery is one ordered message as seen by a subscriber.
type Delivery struct {
	Timestamp time.Time
	Late      bool
	Payload   []byte
}

// Handler receives ordered deliveries; d.Payload is its to keep.
type Handler func(channel string, d Delivery)

// Client is the host-side API.
type Client struct {
	h *host.Host

	mu      sync.Mutex
	conn    *host.Conn
	handler map[string]Handler
}

// NewClient attaches ordered-delivery client logic to a host.
func NewClient(h *host.Host) *Client {
	c := &Client{h: h, handler: make(map[string]Handler)}
	h.OnService(wire.SvcOrdered, c.onMessage)
	return c
}

// onMessage hands a delivery to its channel's Handler. The host's message
// is valid only for this call, so the Handler gets a copy of the payload: a
// Handler may keep what it is given.
func (c *Client) onMessage(msg host.Message) {
	if len(msg.Hdr.Data) < 10 || msg.Hdr.Data[0] != kindDeliver {
		return
	}
	ts := time.Unix(0, int64(binary.BigEndian.Uint64(msg.Hdr.Data[1:9])))
	late := msg.Hdr.Data[9] == 1
	channel := string(msg.Hdr.Data[10:])
	c.mu.Lock()
	fn, ok := c.handler[channel]
	c.mu.Unlock()
	if ok {
		fn(channel, Delivery{Timestamp: ts, Late: late, Payload: bytes.Clone(msg.Payload)})
	}
}

// Subscribe registers for ordered deliveries on a channel.
func (c *Client) Subscribe(channel string, fn Handler) error {
	c.mu.Lock()
	c.handler[channel] = fn
	c.mu.Unlock()
	_, err := OpSubscribe.CallFirstHop(c.h, SubscribeArgs{Channel: channel})
	return err
}

// Submit sends a message for global ordering.
func (c *Client) Submit(channel string, payload []byte) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		var err error
		conn, err = c.h.NewConn(wire.SvcOrdered)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.conn = conn
		c.mu.Unlock()
	}
	return conn.Send(append([]byte{kindSubmit}, channel...), payload)
}

// AddPeer tells a host's first-hop SN that channel subscribers live behind
// the given SNs.
func (c *Client) AddPeer(channel string, peers []wire.Addr) error {
	_, err := OpAddPeer.CallFirstHop(c.h, SubscribeArgs{Channel: channel, Peers: peers})
	return err
}
