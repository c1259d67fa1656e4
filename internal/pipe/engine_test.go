package pipe

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/psp"
	"interedge/internal/wire"
)

// loopTransport is an EngineTransport that loops every datagram straight
// back into the engine's receive queue — one engine plays both ends of
// every pipe, which is exactly what the (local, remote) keying must
// support. In inline mode, Send dispatches synchronously on the caller's
// goroutine instead (the zero-alloc bench path).
type loopTransport struct {
	eng           *Engine
	inline        bool
	inlineRun     rxRun
	inlineScratch psp.Scratch
	inlineEgress  *egress

	mu     sync.Mutex
	rx     chan wire.Datagram
	closed bool
}

func newLoopTransport(depth int) *loopTransport {
	return &loopTransport{rx: make(chan wire.Datagram, depth)}
}

func (t *loopTransport) Send(dg wire.Datagram) error {
	if t.inline {
		if t.inlineEgress == nil {
			t.inlineEgress = t.eng.newEgress()
		}
		t.inlineRun.dgs = append(t.inlineRun.dgs[:0], dg)
		t.eng.dispatchBatch(t.inlineEgress, &t.inlineRun, &t.inlineScratch)
		t.inlineEgress.flushAll()
		return nil
	}
	cp := make([]byte, len(dg.Payload))
	copy(cp, dg.Payload)
	dg.Payload = cp
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("loop transport closed")
	}
	select {
	case t.rx <- dg:
	default:
	}
	return nil
}

func (t *loopTransport) Receive() <-chan wire.Datagram { return t.rx }

func (t *loopTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.rx)
	}
	return nil
}

func newTestEngine(t testing.TB, tr *loopTransport, edit ...func(*EngineConfig)) *Engine {
	t.Helper()
	cfg := EngineConfig{
		Transport:        tr,
		HandshakeTimeout: 200 * time.Millisecond,
		HandshakeRetries: 4,
		RxWorkers:        1,
	}
	for _, e := range edit {
		e(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.eng = eng
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

func addEndpoint(t testing.TB, e *Engine, addr string, h PacketHandler) wire.Addr {
	t.Helper()
	a := wire.MustAddr(addr)
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEndpoint(EndpointConfig{Addr: a, Identity: id, Handler: h}); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEngineHandshakeBetweenEndpoints runs a full handshake between two
// endpoints of the SAME engine over a loopback transport and pushes a
// packet each way: pipes are keyed by (local, remote), so both directions
// coexist and each side opens with its own pipe's keys.
func TestEngineHandshakeBetweenEndpoints(t *testing.T) {
	tr := newLoopTransport(256)
	var gotB atomic.Value
	e := newTestEngine(t, tr)
	a := addEndpoint(t, e, "10.9.0.1", nil)
	b := addEndpoint(t, e, "10.9.0.2", func(tx Sender, src wire.Addr, hdr wire.ILPHeader, hdrRaw, payload []byte) {
		gotB.Store(fmt.Sprintf("%s/%d/%s", src, hdr.Service, payload))
	})

	if err := e.Connect(a, b); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if !e.HasPeer(a, b) {
		t.Fatal("initiator side (a,b) not established")
	}
	// The responder side comes up from the same exchange.
	deadline := time.Now().Add(2 * time.Second)
	for !e.HasPeer(b, a) {
		if time.Now().After(deadline) {
			t.Fatal("responder side (b,a) not established")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if e.Pipes() != 2 {
		t.Fatalf("Pipes() = %d, want 2 (one per direction)", e.Pipes())
	}
	idA, ok := e.PeerIdentity(a, b)
	if !ok {
		t.Fatal("no identity on (a,b)")
	}
	idB, _ := e.PeerIdentity(b, a)
	if string(idA) == string(idB) {
		t.Fatal("endpoints share an identity — transcripts not endpoint-bound")
	}

	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 7}
	if err := e.Send(a, b, &hdr, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for gotB.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("packet never reached endpoint b's handler")
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := fmt.Sprintf("%s/%d/ping", a, wire.SvcEcho)
	if got := gotB.Load().(string); got != want {
		t.Fatalf("handler saw %q, want %q", got, want)
	}
}

// TestEngineSimultaneousOpen drives Connect from both ends at once: the
// numerically lower address stays designated initiator (same tie-break as
// Manager) and both sides converge on working pipes.
func TestEngineSimultaneousOpen(t *testing.T) {
	tr := newLoopTransport(256)
	e := newTestEngine(t, tr)
	a := addEndpoint(t, e, "10.9.1.1", nil)
	b := addEndpoint(t, e, "10.9.1.2", nil)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = e.Connect(a, b) }()
	go func() { defer wg.Done(); errs[1] = e.Connect(b, a) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Connect[%d]: %v", i, err)
		}
	}
	if !e.HasPeer(a, b) || !e.HasPeer(b, a) {
		t.Fatal("simultaneous open left a side down")
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho}
	if err := e.Send(a, b, &hdr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.Send(b, a, &hdr, []byte("y")); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRemoveEndpoint checks teardown accounting: removing an
// endpoint drops its pipes from every shard, updates the gauges, fails
// further sends, and refuses new connects for the dead address.
func TestEngineRemoveEndpoint(t *testing.T) {
	tr := newLoopTransport(256)
	e := newTestEngine(t, tr)
	a := addEndpoint(t, e, "10.9.2.1", nil)
	b := addEndpoint(t, e, "10.9.2.2", nil)
	if err := e.Connect(a, b); err != nil {
		t.Fatal(err)
	}

	e.RemoveEndpoint(a)
	if e.HasPeer(a, b) {
		t.Fatal("removed endpoint still has a pipe")
	}
	if err := e.SendHeaderBytes(a, b, nil, nil); !errors.Is(err, ErrNoPipe) {
		t.Fatalf("send after remove: %v, want ErrNoPipe", err)
	}
	if err := e.Connect(a, b); err == nil {
		t.Fatal("Connect from removed endpoint succeeded")
	}
	if got := e.Telemetry().Snapshot().Value("engine_endpoints"); got != 1 {
		t.Fatalf("engine_endpoints = %v, want 1", got)
	}
	// The surviving direction (b -> a) is untouched until liveness notices.
	if !e.HasPeer(b, a) {
		t.Fatal("remote side's pipe should outlive the endpoint removal")
	}
}

// TestEngineRebindPeer moves a pipe to a new remote keeping its keys (the
// host side of SvcPipeMove): old key gone, new key live, no-clobber on an
// occupied target, ErrNoPipe on a missing source.
func TestEngineRebindPeer(t *testing.T) {
	tr := newLoopTransport(256)
	e := newTestEngine(t, tr)
	a := addEndpoint(t, e, "10.9.3.1", nil)
	b := addEndpoint(t, e, "10.9.3.2", nil)
	c := wire.MustAddr("10.9.3.3")
	if err := e.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	pipesBefore := e.Pipes()

	if err := e.RebindPeer(a, b, c); err != nil {
		t.Fatalf("RebindPeer: %v", err)
	}
	if e.HasPeer(a, b) {
		t.Fatal("old key (a,b) survived the rebind")
	}
	if !e.HasPeer(a, c) {
		t.Fatal("new key (a,c) not installed")
	}
	if e.Pipes() != pipesBefore {
		t.Fatalf("Pipes() = %d, want %d (rebind moves, never adds)", e.Pipes(), pipesBefore)
	}
	if err := e.RebindPeer(a, c, c); !errors.Is(err, ErrPeerExists) {
		t.Fatalf("clobbering rebind: %v, want ErrPeerExists", err)
	}
	if err := e.RebindPeer(a, b, c); !errors.Is(err, ErrNoPipe) {
		t.Fatalf("rebind of missing pipe: %v, want ErrNoPipe", err)
	}
}

// BenchmarkFleetRxFanout measures the fleet fast path end to end on one
// engine: seal on the sender's pipe, demux by (dst, src), open with the
// receiving pipe's keys, decode, and deliver to the endpoint handler —
// round-robined across 256 lite endpoints so the per-op cost includes the
// sharded peer-table lookup at fleet fan-out, not a single hot entry. The
// transport runs inline (no channels, no goroutine hops). One allocation
// here is one allocation per packet per host at 10^6-host scale;
// lab.TestFleetTwoSNDeliveryAllocs holds the shared-engine path at 0.
func BenchmarkFleetRxFanout(b *testing.B) {
	const numHosts = 256
	tr := newLoopTransport(1024)
	e := newTestEngine(b, tr)
	var delivered atomic.Int64
	count := func(tx Sender, src wire.Addr, hdr wire.ILPHeader, hdrRaw, payload []byte) {
		delivered.Add(1)
	}
	sender := addEndpoint(b, e, "10.8.0.1", nil)
	hosts := make([]wire.Addr, numHosts)
	for i := range hosts {
		hosts[i] = addEndpoint(b, e, fmt.Sprintf("10.8.%d.%d", 1+i/200, 1+i%200), count)
	}
	// Establish every pipe through the normal loopback handshake path,
	// then flip the transport to inline dispatch for the measured loop.
	for _, h := range hosts {
		if err := e.Connect(sender, h); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Pipes() < 2*numHosts {
		if time.Now().After(deadline) {
			b.Fatalf("responder pipes not up: %d/%d", e.Pipes(), 2*numHosts)
		}
		time.Sleep(time.Millisecond)
	}
	tr.inline = true

	hdrBytes, err := (&wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}).Encode()
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 16)

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := e.SendHeaderBytes(sender, hosts[n%numHosts], hdrBytes, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := delivered.Load(); got != int64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}
