package netsim

import (
	"fmt"
	"sync"

	"interedge/internal/wire"
)

// Mux is a shared endpoint multiplexer: many fabric addresses (ports)
// funneled into ONE receive side. It exists for weightless host fleets —
// a standalone Transport per host means a receive channel and a receive
// goroutine per host, which caps simulations at O(10^4) endpoints; a Mux
// lets 10^6 addresses share one receive side drained by one engine, split
// into one queue per engine RX worker (ReceiveShards).
//
// Each port is a real attachment in the fabric's routing table: links,
// faults, partitions, and queue-drop accounting apply per port exactly as
// for Attach'd nodes. Delivered datagrams keep their Dst, which is how the
// consumer (pipe.Engine) demultiplexes.
//
// Close safety: the fabric's deliver paths hold a port's mutex across the
// closed-check AND the queue send, so marking every port closed guarantees
// no further sends into the shared queues — after which closing them is
// safe. ReceiveShards holds every port's mutex for the same reason.
type Mux struct {
	net *Network
	rx  *rxQueues

	mu     sync.RWMutex
	ports  map[wire.Addr]*simTransport
	closed bool
}

// NewMux creates a multiplexer whose shared receive side holds queueDepth
// datagrams in total (0 selects the network's per-node default). It is
// shared by every port, so size it for the aggregate fleet rate, not a
// single node's.
func (n *Network) NewMux(queueDepth int) *Mux {
	if queueDepth <= 0 {
		queueDepth = n.queueDepth
	}
	return &Mux{
		net:   n,
		rx:    newRxQueues(queueDepth),
		ports: make(map[wire.Addr]*simTransport),
	}
}

// AddPort attaches addr to the fabric, delivering into the shared queue.
func (m *Mux) AddPort(addr wire.Addr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, dup := m.ports[addr]; dup {
		return fmt.Errorf("netsim: mux port %s already added", addr)
	}
	t, err := m.net.attachShared(addr, m.rx)
	if err != nil {
		return err
	}
	m.ports[addr] = t
	return nil
}

// RemovePort detaches addr. In-flight datagrams to it are dropped; the
// shared queue stays open for the remaining ports.
func (m *Mux) RemovePort(addr wire.Addr) error {
	m.mu.Lock()
	t, ok := m.ports[addr]
	delete(m.ports, addr)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("netsim: mux port %s not found", addr)
	}
	return t.Close()
}

// Ports returns the number of attached ports.
func (m *Mux) Ports() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.ports)
}

// Backlog returns the number of datagrams waiting across the shared
// receive queues. Load generators use it for flow control: the queues are
// the fleet's one NIC, and a producer that outruns the consumer overflows
// them exactly as a real NIC would drop. Capacity returns their total depth.
func (m *Mux) Backlog() int  { return m.rx.backlog() }
func (m *Mux) Capacity() int { return m.rx.capacity() }

// Send transmits dg from the port named by dg.Src. It implements
// pipe.EngineTransport: the caller chooses the source identity per send.
func (m *Mux) Send(dg wire.Datagram) error {
	m.mu.RLock()
	t := m.ports[dg.Src]
	m.mu.RUnlock()
	if t == nil {
		return fmt.Errorf("%w: no mux port %s", ErrClosed, dg.Src)
	}
	return t.Send(dg)
}

// Receive returns the shared inbound queue (the first, once split).
// Datagrams retain their Dst so the consumer can demultiplex; the channel
// closes when the Mux closes.
func (m *Mux) Receive() <-chan wire.Datagram { return m.rx.first() }

// ReceiveShards implements ShardedReceiver. Delivery to a port holds that
// port's mutex across its queue send, so the split holds every port's. A
// closed Mux is not split: its ports may still be closing.
func (m *Mux) ReceiveShards(n int) []<-chan wire.Datagram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.rx.shards()
	}
	for _, t := range m.ports {
		t.mu.Lock()
	}
	dropped := m.rx.split(n)
	for _, t := range m.ports {
		t.mu.Unlock()
	}
	m.net.stats.droppedQueue.Add(uint64(dropped))
	return m.rx.shards()
}

// Close detaches every port and then closes the shared queue. Safe against
// concurrent fabric deliveries (see the type comment).
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	ports := m.ports
	m.ports = make(map[wire.Addr]*simTransport)
	m.mu.Unlock()
	for _, t := range ports {
		_ = t.Close()
	}
	m.mu.Lock()
	m.rx.close()
	m.mu.Unlock()
	return nil
}
