package sn

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// settledGoroutines returns the goroutine count once it has stopped moving
// (goroutines of earlier tests may still be on their way out).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for same := 0; same < 5; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// svcModule is an echoModule under another service ID, so one SN can hold
// several.
type svcModule struct {
	echoModule
	svc wire.ServiceID
}

func (m *svcModule) Service() wire.ServiceID { return m.svc }
func (m *svcModule) Name() string            { return m.svc.String() }

// TestInProcessModuleOwnsItsWorkersOnly: the dispatcher queue is the module
// transport, so registering an in-process module starts exactly the workers
// it was asked for — no module goroutine behind them (it was 2×workers+1
// when a channel invoker sat behind the queue) — under either name of the
// transport, and Close gives every one of them back.
func TestInProcessModuleOwnsItsWorkersOnly(t *testing.T) {
	node := newTestSN(t, netsim.NewNetwork(), "fd00::5")
	base := settledGoroutines()
	want := base
	for i, tc := range []struct {
		tr      Transport
		workers int
	}{{TransportChan, 1}, {TransportChan, 3}, {TransportDirect, 2}} {
		mod := &svcModule{svc: wire.SvcEcho + wire.ServiceID(i)}
		if err := node.Register(mod, WithTransport(tc.tr), WithWorkers(tc.workers)); err != nil {
			t.Fatal(err)
		}
		want += tc.workers
		if got := settledGoroutines(); got != want {
			t.Fatalf("after registering %s with %d workers: %d goroutines, want %d", tc.tr, tc.workers, got, want)
		}
	}
	// Closing the node ends the workers along with its own goroutines.
	node.Close()
	if got := settledGoroutines(); got >= base {
		t.Fatalf("%d goroutines after Close, want fewer than the %d before any module", got, base)
	}
}

// seqModule records the sequence number each packet carries, in the order
// the module sees them, and can be held shut to let the queue fill.
type seqModule struct {
	gate chan struct{} // closed to let invocations proceed
	seen chan uint32
}

func (*seqModule) Service() wire.ServiceID { return wire.SvcNull }
func (*seqModule) Name() string            { return "seq" }
func (*seqModule) Version() string         { return "1" }
func (m *seqModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	<-m.gate
	m.seen <- binary.BigEndian.Uint32(pkt.Payload)
	return Decision{}, nil
}

// TestDispatcherQueueKeepsSourceOrderAndShowsDepth: with one worker, the
// packets of one source reach the module in the order they were sent — the
// queue is the only thing between the rx worker and the module — and while
// the module is stuck on the first, sn_module_queue_depth reads how many
// wait behind it.
func TestDispatcherQueueKeepsSourceOrderAndShowsDepth(t *testing.T) {
	const n = 200
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	mod := &seqModule{gate: make(chan struct{}), seen: make(chan uint32, n)}
	if err := node.Register(mod, WithQueueDepth(n)); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var seq [4]byte
		binary.BigEndian.PutUint32(seq[:], uint32(i))
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, seq[:]); err != nil {
			t.Fatal(err)
		}
	}
	// The worker holds packet 0 inside the module; the other n-1 queue up.
	gauge := telemetry.Name("sn_module_queue_depth", "module", "seq")
	waitFor(t, func() bool { return node.Telemetry().Snapshot().Value(gauge) == n-1 })
	close(mod.gate)
	for i := 0; i < n; i++ {
		select {
		case got := <-mod.seen:
			if got != uint32(i) {
				t.Fatalf("module saw packet %d at position %d", got, i)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("module saw %d of %d packets", i, n)
		}
	}
	waitFor(t, func() bool { return node.Telemetry().Snapshot().Value(gauge) == 0 })
	if dropped := moduleHealth(t, node, wire.SvcNull).Dropped; dropped != 0 {
		t.Fatalf("%d packets dropped at the queue", dropped)
	}
}
