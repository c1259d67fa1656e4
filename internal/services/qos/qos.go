// Package qos implements last-hop QoS (§6.2): a receiver tells its
// first-hop SN — which sits on the far side of the receiver's congested
// access link — the total bandwidth that link can handle plus a set of
// weights (weighted fair queueing) or priorities (strict priority) for
// traffic classes identified by source prefixes. The SN then schedules
// and shapes the receiver's incoming traffic accordingly, so that e.g.
// gaming traffic stays low-latency while a movie stream keeps its share.
package qos

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"interedge/internal/control"
	"interedge/internal/sched"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// Errors returned by the service.
var (
	ErrBadHeader = errors.New("qos: malformed header data")
	ErrBadConfig = errors.New("qos: invalid configuration")
)

// Class binds a source prefix to a scheduling parameter.
type Class struct {
	// Prefix selects sources (e.g. "fd00:1::/32").
	Prefix netip.Prefix `json:"prefix"`
	// Weight is the WFQ weight (mode "wfq").
	Weight float64 `json:"weight,omitempty"`
	// Level is the strict priority (mode "priority", lower = served first).
	Level int `json:"level,omitempty"`
}

// ConfigArgs are the args of configure.
type ConfigArgs struct {
	// BandwidthBps is the access-link capacity in bytes per second.
	BandwidthBps float64 `json:"bandwidth_bps"`
	// Mode is "wfq" or "priority".
	Mode string `json:"mode"`
	// Classes lists the traffic classes.
	Classes []Class `json:"classes"`
	// QueueCapacity bounds queued packets (default 1024).
	QueueCapacity int `json:"queue_capacity,omitempty"`
}

type receiverState struct {
	bandwidth float64
	scheduler sched.Scheduler
	prefixes  []classPrefix
	kick      chan struct{}
	stop      chan struct{}
}

type classPrefix struct {
	prefix netip.Prefix
	name   string
}

type queuedPacket struct {
	dst     wire.Addr
	hdr     wire.ILPHeader
	payload []byte
}

// Module is the last-hop QoS service.
type Module struct {
	mu        sync.Mutex
	receivers map[wire.Addr]*receiverState
	env       sn.Env
	stopped   bool
}

// New creates the module.
func New() *Module {
	return &Module{receivers: make(map[wire.Addr]*receiverState)}
}

// Service implements sn.Module.
func (*Module) Service() wire.ServiceID { return wire.SvcQoS }

// Name implements sn.Module.
func (*Module) Name() string { return "qos" }

// Version implements sn.Module.
func (*Module) Version() string { return "1.0" }

// Start implements sn.Starter.
func (m *Module) Start(env sn.Env) error {
	m.mu.Lock()
	m.env = env
	m.mu.Unlock()
	return nil
}

// Stop implements sn.Stopper.
func (m *Module) Stop() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil
	}
	m.stopped = true
	for _, st := range m.receivers {
		close(st.stop)
	}
	return nil
}

// The service's control ops, each acting on the calling receiver's own
// policy. configure installs it ("they specify to their first-hop SN … the
// total bandwidth that their access link can handle and a set of weights
// or priorities … for various traffic streams (identified by source
// prefixes)", §6.2); clear removes it.
var (
	OpConfigure = control.NewOp[ConfigArgs, control.None](wire.SvcQoS, "configure")
	OpClear     = control.NewOp[control.None, control.None](wire.SvcQoS, "clear")
)

// ControlOps implements sn.ControlServer.
func (m *Module) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(OpConfigure, func(env sn.Env, caller wire.Addr, a ConfigArgs) (control.None, error) {
			return control.None{}, m.configure(env, caller, a)
		}),
		sn.Handle(OpClear, func(_ sn.Env, caller wire.Addr, _ control.None) (control.None, error) {
			m.mu.Lock()
			if st, ok := m.receivers[caller]; ok {
				close(st.stop)
				delete(m.receivers, caller)
			}
			m.mu.Unlock()
			return control.None{}, nil
		}),
	}
}

func (m *Module) configure(env sn.Env, receiver wire.Addr, a ConfigArgs) error {
	if a.BandwidthBps <= 0 {
		return fmt.Errorf("%w: bandwidth must be positive", ErrBadConfig)
	}
	for _, c := range a.Classes {
		if !c.Prefix.IsValid() {
			return fmt.Errorf("%w: class with no prefix", ErrBadConfig)
		}
	}
	capacity := a.QueueCapacity
	if capacity == 0 {
		capacity = 1024
	}
	var scheduler sched.Scheduler
	var prefixes []classPrefix
	switch a.Mode {
	case "wfq":
		w := sched.NewWFQ(capacity)
		for _, c := range a.Classes {
			if err := w.SetWeight(c.Prefix.String(), c.Weight); err != nil {
				return fmt.Errorf("%w: %v", ErrBadConfig, err)
			}
			prefixes = append(prefixes, classPrefix{prefix: c.Prefix, name: c.Prefix.String()})
		}
		scheduler = w
	case "priority":
		p := sched.NewPriority(capacity)
		for _, c := range a.Classes {
			p.SetLevel(c.Prefix.String(), c.Level)
			prefixes = append(prefixes, classPrefix{prefix: c.Prefix, name: c.Prefix.String()})
		}
		scheduler = p
	default:
		return fmt.Errorf("%w: unknown mode %q", ErrBadConfig, a.Mode)
	}

	st := &receiverState{
		bandwidth: a.BandwidthBps,
		scheduler: scheduler,
		prefixes:  prefixes,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	m.mu.Lock()
	if old, ok := m.receivers[receiver]; ok {
		close(old.stop)
	}
	m.receivers[receiver] = st
	m.mu.Unlock()
	go m.drain(env, receiver, st)
	return nil
}

// classify maps a source to its class name via longest prefix match.
func (st *receiverState) classify(src wire.Addr) string {
	best := ""
	bestBits := -1
	for _, cp := range st.prefixes {
		if cp.prefix.Contains(src) && cp.prefix.Bits() > bestBits {
			best = cp.name
			bestBits = cp.prefix.Bits()
		}
	}
	if best == "" {
		return "default"
	}
	return best
}

// DestData encodes the receiving host as header data.
func DestData(dst wire.Addr) []byte {
	b := dst.As16()
	return b[:]
}

// HandlePacket implements sn.Module: packets for configured receivers are
// scheduled and shaped; others pass straight through.
func (m *Module) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	if len(pkt.Hdr.Data) != 16 {
		return sn.Decision{}, ErrBadHeader
	}
	var b [16]byte
	copy(b[:], pkt.Hdr.Data)
	dst := netip.AddrFrom16(b).Unmap()

	m.mu.Lock()
	st, ok := m.receivers[dst]
	m.mu.Unlock()
	if !ok {
		return sn.Decision{Forwards: []sn.Forward{{Dst: dst}}}, nil
	}
	flow := st.classify(pkt.Src)
	qp := &queuedPacket{
		dst:     dst,
		hdr:     wire.ILPHeader{Service: wire.SvcQoS, Conn: pkt.Hdr.Conn, Data: append([]byte(nil), pkt.Hdr.Data...)},
		payload: append([]byte(nil), pkt.Payload...),
	}
	size := len(pkt.Payload) + pkt.Hdr.EncodedSize()
	if !st.scheduler.Enqueue(sched.Item{Flow: flow, Size: size, Data: qp}) {
		env.Logf("qos: queue full for %s, dropping packet from %s", dst, pkt.Src)
		return sn.Decision{}, nil
	}
	select {
	case st.kick <- struct{}{}:
	default:
	}
	return sn.Decision{}, nil
}

// drain paces the receiver's queue at the configured access-link rate.
func (m *Module) drain(env sn.Env, receiver wire.Addr, st *receiverState) {
	for {
		it, ok := st.scheduler.Dequeue()
		if !ok {
			select {
			case <-st.kick:
				continue
			case <-st.stop:
				return
			}
		}
		qp := it.Data.(*queuedPacket)
		if err := env.Send(qp.dst, &qp.hdr, qp.payload); err != nil {
			env.Logf("qos: deliver to %s: %v", qp.dst, err)
		}
		// Shape: hold the link for the packet's serialization time.
		txTime := float64(it.Size) / st.bandwidth
		select {
		case <-env.After(durationFromSeconds(txTime)):
		case <-st.stop:
			return
		}
	}
}

// QueueLen reports a receiver's queue depth (tests).
func (m *Module) QueueLen(receiver wire.Addr) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.receivers[receiver]; ok {
		return st.scheduler.Len()
	}
	return 0
}
