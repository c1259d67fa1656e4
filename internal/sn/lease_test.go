package sn

import (
	"bytes"
	"testing"
	"time"

	"interedge/internal/clock"
	"interedge/internal/netsim"
	"interedge/internal/wire"
)

// Connections of the lease tests: packets of connKept are retained by the
// module, packets of connFree are not.
const (
	connKept = 1
	connFree = 2
)

// retainModule retains every packet of connKept and keeps its payload; it
// lets every other packet go when it returns.
type retainModule struct{ k *keeper }

func (retainModule) Service() wire.ServiceID { return wire.SvcNull }
func (retainModule) Name() string            { return "retain" }
func (retainModule) Version() string         { return "1" }
func (m retainModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	if pkt.Hdr.Conn == connKept {
		pkt.Retain()
		m.k.keep(pkt.Payload)
	}
	return Decision{}, nil
}

// released reads how many receive buffers node has given back.
func released(node *SN) float64 {
	return node.Telemetry().Snapshot().Value("sn_rx_buffers_released_total")
}

// TestLeaseEndsWithTheInvocation: a miss gives its receive buffer back once
// its verdict is applied, unless its module retained the packet. In process
// the module holds the SN's own packet, so a retained one keeps its buffer
// and what the module kept survives a hundred recycled buffers of the same
// size class; under IPC and in an enclave the module is handed a decoded
// copy, so the SN's packet is released after every invocation, retained or
// not. Run with -race, where a released buffer is overwritten at once.
func TestLeaseEndsWithTheInvocation(t *testing.T) {
	const kept, later = 8, 100
	for _, tc := range []struct {
		name   string
		opts   []ModuleOption
		copied bool // the module sees a copy, not the SN's packet
	}{
		{"chan", []ModuleOption{WithTransport(TransportChan)}, false},
		{"ipc", []ModuleOption{WithTransport(TransportIPC)}, true},
		{"enclave", []ModuleOption{WithEnclave()}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.NewNetwork()
			node := newTestSN(t, net, "fd00::5")
			moduleSaw := newKeeper()
			if err := node.Register(retainModule{moduleSaw}, tc.opts...); err != nil {
				t.Fatal(err)
			}
			cl := newClient(t, net, "fd00::1")
			if err := cl.mgr.Connect(node.Addr()); err != nil {
				t.Fatal(err)
			}
			send := func(conn, seq int) {
				t.Helper()
				hdr := wire.ILPHeader{Service: wire.SvcNull, Conn: wire.ConnectionID(conn)}
				if err := cl.mgr.Send(node.Addr(), &hdr, releasePayload(conn, seq)); err != nil {
					t.Fatal(err)
				}
			}
			for seq := 0; seq < kept; seq++ {
				send(connKept, seq)
			}
			moduleSaw.await(t, kept, "retained packets")
			// One worker serves the module in order: once the packet after
			// the retained ones is released, every lease before it has ended.
			send(connFree, 0)
			want := 1.0
			if tc.copied {
				want += kept
			}
			waitFor(t, func() bool { return released(node) >= want })
			if got := released(node); got != want {
				t.Fatalf("sn_rx_buffers_released_total = %v after %d retained packets and 1 that was not, want %v", got, kept, want)
			}
			for seq := 1; seq <= later; seq++ {
				send(connFree, seq)
			}
			waitFor(t, func() bool { return released(node) >= want+later })
			if n := moduleSaw.check(t, "module", connKept); n != kept {
				t.Errorf("the module holds %d of %d retained payloads intact", n, kept)
			}
		})
	}
}

// holdOnceModule blocks its invocation for the packet of connKept until
// unblock is closed, then reports what that packet reads; it lets every
// other packet go at once. It never retains.
type holdOnceModule struct {
	unblock chan struct{}
	read    chan keptPayload
}

func (*holdOnceModule) Service() wire.ServiceID { return wire.SvcNull }
func (*holdOnceModule) Name() string            { return "hold-once" }
func (*holdOnceModule) Version() string         { return "1" }
func (m *holdOnceModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	if pkt.Hdr.Conn == connKept {
		<-m.unblock
		m.read <- keptPayload{conn: int(pkt.Hdr.Conn), payload: bytes.Clone(pkt.Payload)}
	}
	return Decision{}, nil
}

// TestAbandonedInvocationKeepsItsPacket: the worker moves on from an
// invocation that outlived its deadline, but it never recycles that
// invocation's packet — the module is still running with it. After the
// worker has served more than a hundred later packets of the same size,
// each one's packet and buffer recycled, the abandoned invocation still
// reads its own packet intact. Run with -race: a packet recycled under it
// is overwritten, and its reuse is a data race.
func TestAbandonedInvocationKeepsItsPacket(t *testing.T) {
	const later = 128
	manual := clock.NewManual(time.Unix(0, 0))
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5", func(c *Config) { c.Clock = manual })
	mod := &holdOnceModule{unblock: make(chan struct{}), read: make(chan keptPayload, 1)}
	if err := node.Register(mod, WithDeadline(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	unblocked := false
	unblock := func() {
		if !unblocked {
			unblocked = true
			close(mod.unblock)
		}
	}
	defer unblock()
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	send := func(conn, seq int) {
		t.Helper()
		hdr := wire.ILPHeader{Service: wire.SvcNull, Conn: wire.ConnectionID(conn)}
		if err := cl.mgr.Send(node.Addr(), &hdr, releasePayload(conn, seq)); err != nil {
			t.Fatal(err)
		}
	}
	send(connKept, 0)
	// The worker arms the deadline timer on its own goroutine: advance
	// until the timer exists and has fired.
	waitFor(t, func() bool {
		manual.Advance(100 * time.Millisecond)
		return moduleHealth(t, node, wire.SvcNull).Timeouts == 1
	})
	for seq := 0; seq < later; seq++ {
		send(connFree, seq)
	}
	waitFor(t, func() bool { return released(node) >= later })
	if got := released(node); got != later {
		t.Fatalf("sn_rx_buffers_released_total = %v, want %d: the abandoned packet's buffer went back too", got, later)
	}
	unblock()
	select {
	case got := <-mod.read:
		if got.conn != connKept || !bytes.Equal(got.payload, releasePayload(connKept, 0)) {
			t.Fatalf("the abandoned invocation reads connection %d, payload % x…; its packet was recycled under it", got.conn, got.payload[:8])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned invocation never finished")
	}
}

// TestRecycledPacket: ending a lease gives the receive buffer back and
// clears the packet — in race builds overwrites it, as a released buffer is
// overwritten — unless the packet was retained, which leaves both alone.
func TestRecycledPacket(t *testing.T) {
	src := wire.MustAddr("fd00::1")
	lease := func(seq int) (*Packet, []byte) {
		want := releasePayload(connFree, seq)
		buf := wire.RxCopy(want)
		return leasePacket(src, wire.ILPHeader{Service: wire.SvcNull, Conn: connFree, Data: buf[:8]}, buf[8:], buf), want
	}

	kept, want := lease(0)
	kept.Retain()
	if kept.recycle() {
		t.Error("a retained packet gave its buffer back")
	}
	if kept.Src != src || kept.Hdr.Conn != connFree || !bytes.Equal(kept.Hdr.Data, want[:8]) || !bytes.Equal(kept.Payload, want[8:]) {
		t.Errorf("a retained packet was cleared: %+v", kept)
	}

	p, want := lease(1)
	buf := p.rxBuf
	if !p.recycle() {
		t.Error("a recycled packet kept its buffer")
	}
	if p.Src == src || p.Hdr.Conn == connFree || p.rxBuf != nil || p.retained ||
		bytes.Equal(p.Hdr.Data, want[:8]) || bytes.Equal(p.Payload, want[8:]) {
		t.Errorf("a recycled packet still reads as it was leased: %+v", p)
	}
	if raceEnabled {
		if p.Src != recycledPacket.Src || !bytes.Equal(p.Payload, recycledPacket.Payload) {
			t.Errorf("a recycled packet reads %+v, not the race build's garbage", p)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xDB}, len(buf))) {
			t.Error("the recycled packet's buffer was not released: it still reads what it held")
		}
	}
}
