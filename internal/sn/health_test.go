package sn

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/clock"
	"interedge/internal/control"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// panicModule panics on payload "boom" and echoes everything else back to
// the sender unmodified.
type panicModule struct{ calls atomic.Uint64 }

func (m *panicModule) Service() wire.ServiceID { return wire.SvcNull }
func (m *panicModule) Name() string            { return "panicky" }
func (m *panicModule) Version() string         { return "1" }
func (m *panicModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	m.calls.Add(1)
	if string(pkt.Payload) == "boom" {
		panic("kaboom")
	}
	return Decision{Forwards: []Forward{{Dst: pkt.Src}}}, nil
}

// flakyModule fails every packet until healed, then echoes.
type flakyModule struct{ healed atomic.Bool }

func (m *flakyModule) Service() wire.ServiceID { return wire.SvcNull }
func (m *flakyModule) Name() string            { return "flaky" }
func (m *flakyModule) Version() string         { return "1" }
func (m *flakyModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	if !m.healed.Load() {
		return Decision{}, errors.New("still broken")
	}
	return Decision{Forwards: []Forward{{Dst: pkt.Src}}}, nil
}

// moduleHealth fetches the health snapshot of one service.
func moduleHealth(t *testing.T, node *SN, svc wire.ServiceID) ModuleHealth {
	t.Helper()
	for _, h := range node.ModuleHealth() {
		if h.Service == svc {
			return h
		}
	}
	t.Fatalf("no health entry for service %v", svc)
	return ModuleHealth{}
}

func TestBreakerStateMachine(t *testing.T) {
	m := clock.NewManual(time.Unix(0, 0))
	b := newBreaker(3, 10*time.Second, m)
	boom := errors.New("x")

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused invocation %d", i)
		}
		b.onResult(boom)
	}
	state, consec, trips, _ := b.snapshot()
	if state != BreakerOpen || consec != 3 || trips != 1 {
		t.Fatalf("after trip: state=%v consec=%d trips=%d", state, consec, trips)
	}
	if b.allow() {
		t.Fatal("open breaker allowed an invocation before cooldown")
	}

	// Cooldown elapses: exactly one half-open probe goes through.
	m.Advance(10 * time.Second)
	if !b.allow() {
		t.Fatal("no half-open probe after cooldown")
	}
	if b.allow() {
		t.Fatal("second invocation allowed while probe in flight")
	}
	// Failed probe re-opens for another cooldown.
	b.onResult(boom)
	if state, _, trips, _ = b.snapshot(); state != BreakerOpen || trips != 2 {
		t.Fatalf("after failed probe: state=%v trips=%d", state, trips)
	}
	if b.allow() {
		t.Fatal("breaker allowed invocation right after failed probe")
	}

	// Successful probe closes the breaker.
	m.Advance(10 * time.Second)
	if !b.allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.onResult(nil)
	state, consec, _, recoveries := b.snapshot()
	if state != BreakerClosed || consec != 0 || recoveries != 1 {
		t.Fatalf("after recovery: state=%v consec=%d recoveries=%d", state, consec, recoveries)
	}
	if !b.allow() {
		t.Fatal("recovered breaker refused invocation")
	}
}

func TestNilBreakerAlwaysAllows(t *testing.T) {
	var b *breaker
	if !b.allow() {
		t.Fatal("nil breaker refused")
	}
	b.onResult(errors.New("x")) // must not panic
	if state, _, _, _ := b.snapshot(); state != BreakerClosed {
		t.Fatalf("nil breaker state %v", state)
	}
}

// testPanicContainment pins the containment contract on the in-process
// transports: a module panic becomes a counted module error, the SN
// survives, and the module keeps serving subsequent packets.
func testPanicContainment(t *testing.T, transport Transport) {
	t.Helper()
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	mod := &panicModule{}
	if err := node.Register(mod, WithTransport(transport)); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("boom")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		h := moduleHealth(t, node, wire.SvcNull)
		return h.Panics == 1 && h.Errored == 1 && node.Counters().ModuleErrors == 1
	})
	// The module is still in service after the contained panic.
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 2}, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if got := cl.await(t); string(got.payload) != "fine" {
		t.Fatalf("post-panic echo payload %q", got.payload)
	}
	if h := moduleHealth(t, node, wire.SvcNull); h.Handled != 1 {
		t.Fatalf("Handled = %d after post-panic echo", h.Handled)
	}
}

func TestPanicContainmentChan(t *testing.T)   { testPanicContainment(t, TransportChan) }
func TestPanicContainmentDirect(t *testing.T) { testPanicContainment(t, TransportDirect) }

// TestPanicIPCCrashRestart: on the IPC transport a module panic kills the
// module server connection; the invoker must count the crash, redial with
// backoff, and serve packets again on the fresh connection.
func TestPanicIPCCrashRestart(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	mod := &panicModule{}
	err := node.Register(mod,
		WithTransport(TransportIPC),
		WithRestartBackoff(time.Millisecond, 8*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("boom")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		h := moduleHealth(t, node, wire.SvcNull)
		return h.Panics >= 1 && h.Errored >= 1 && h.Restarts >= 1
	})
	// The restarted server answers on the redialed connection.
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 2}, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if got := cl.await(t); string(got.payload) != "alive" {
		t.Fatalf("post-restart echo payload %q", got.payload)
	}
}

// TestDeadlineTimeout drives the per-invoke deadline from a Manual clock:
// a hung module invocation fails with a timeout once the clock advances
// past the deadline, and (with a one-failure breaker) trips the breaker so
// the hung module stops being invoked.
func TestDeadlineTimeout(t *testing.T) {
	manual := clock.NewManual(time.Unix(0, 0))
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5", func(c *Config) { c.Clock = manual })
	block := make(chan struct{})
	defer close(block)
	mod := &blockingModule{block: block}
	err := node.Register(mod, WithDeadline(100*time.Millisecond), WithBreaker(1, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, nil); err != nil {
		t.Fatal(err)
	}
	// The deadline timer is armed by the dispatch worker asynchronously, so
	// keep advancing until it has been created and fired.
	waitFor(t, func() bool {
		manual.Advance(100 * time.Millisecond)
		return moduleHealth(t, node, wire.SvcNull).Timeouts >= 1
	})
	h := moduleHealth(t, node, wire.SvcNull)
	if h.Timeouts != 1 || h.Errored != 1 {
		t.Fatalf("Timeouts=%d Errored=%d, want 1/1", h.Timeouts, h.Errored)
	}
	if h.State != BreakerOpen.String() || h.BreakerTrips != 1 {
		t.Fatalf("state=%q trips=%d after timeout with 1-failure breaker", h.State, h.BreakerTrips)
	}
}

// TestBreakerTripAndRecoverEndToEnd: a failing module trips its breaker,
// sheds traffic while open, and recovers through a half-open probe once it
// heals.
func TestBreakerTripAndRecoverEndToEnd(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	mod := &flakyModule{}
	if err := node.Register(mod, WithBreaker(3, 300*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	send := func(payload string) {
		t.Helper()
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		send("fail")
	}
	waitFor(t, func() bool {
		h := moduleHealth(t, node, wire.SvcNull)
		return h.BreakerTrips == 1 && h.State == BreakerOpen.String()
	})
	// While open, packets are shed (default degraded action: drop).
	send("shed")
	waitFor(t, func() bool { return moduleHealth(t, node, wire.SvcNull).Shed >= 1 })

	// Heal the module; once the cooldown elapses a probe closes the breaker.
	mod.healed.Store(true)
	waitFor(t, func() bool {
		send("probe")
		return moduleHealth(t, node, wire.SvcNull).BreakerRecoveries >= 1
	})
	h := moduleHealth(t, node, wire.SvcNull)
	if h.State != BreakerClosed.String() {
		t.Fatalf("state %q after recovery", h.State)
	}
	if h.Handled == 0 {
		t.Fatal("no handled invocations after recovery")
	}
}

// TestDegradedForwardPassThrough: with WithDegradedForward, packets shed by
// an open breaker pass through unmodified to the fallback next hop instead
// of being dropped.
func TestDegradedForwardPassThrough(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	fallback := newClient(t, network, "fd00::7")
	err := node.Register(failModule{},
		WithBreaker(2, time.Hour),
		WithDegradedForward(fallback.addr))
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("fail")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return moduleHealth(t, node, wire.SvcNull).BreakerTrips == 1 })
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("pass-through")); err != nil {
		t.Fatal(err)
	}
	got := fallback.await(t)
	if string(got.payload) != "pass-through" {
		t.Fatalf("fallback payload %q", got.payload)
	}
	if got.hdr.Service != wire.SvcNull || got.hdr.Conn != 1 {
		t.Fatalf("fallback header %+v (degraded forward must not rewrite)", got.hdr)
	}
	if h := moduleHealth(t, node, wire.SvcNull); h.Shed == 0 {
		t.Fatalf("Shed = 0 after degraded forward")
	}
}

func TestDegradedForwardNeedsValidDst(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	err := node.Register(failModule{}, WithDegradedForward(wire.Addr{}))
	if err == nil {
		t.Fatal("registration with invalid degraded destination succeeded")
	}
}

// TestControlHealthOp: the SN itself answers the control-plane "health"
// operation, for all modules or one target service, without requiring the
// module to implement a control handler.
func TestControlHealthOp(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	if err := node.Register(failModule{}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return node.Counters().ModuleErrors == 1 })

	query := func(target wire.ServiceID) control.Response {
		t.Helper()
		return cl.control(t, node.Addr(), 77, rawRequest(target, "health", ""))
	}

	// All modules.
	resp := query(wire.SvcNone)
	if !resp.OK {
		t.Fatalf("health(all) error: %s", resp.Error)
	}
	var all []ModuleHealth
	if err := json.Unmarshal(resp.Data, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Service != wire.SvcNull || all[0].Errored < 1 {
		t.Fatalf("health(all) = %+v", all)
	}

	// One target service.
	resp = query(wire.SvcNull)
	if !resp.OK {
		t.Fatalf("health(SvcNull) error: %s", resp.Error)
	}
	var one ModuleHealth
	if err := json.Unmarshal(resp.Data, &one); err != nil {
		t.Fatal(err)
	}
	if one.Name != "fail" || one.Errored < 1 || one.State != BreakerClosed.String() {
		t.Fatalf("health(SvcNull) = %+v", one)
	}

	// Unregistered target errors.
	if resp = query(wire.SvcVPN); resp.OK || resp.Error == "" {
		t.Fatalf("health(unregistered) = %+v", resp)
	}
}

// TestInjectUnregisteredService: Inject runs the terminus synchronously, so
// a packet for an unregistered service is counted as a no-module drop.
func TestInjectUnregisteredService(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	node.Inject(wire.MustAddr("fd00::9"), wire.ILPHeader{Service: wire.SvcMixnet, Conn: 1}, []byte("x"))
	c := node.Counters()
	if c.NoModuleDrops != 1 || c.RxPackets != 1 {
		t.Fatalf("NoModuleDrops=%d RxPackets=%d, want 1/1", c.NoModuleDrops, c.RxPackets)
	}
}

// TestEnclaveErrorPropagation: a module error raised inside the enclave
// boundary must come back out as a module error, not as a codec failure.
func TestEnclaveErrorPropagation(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	if err := node.Register(failModule{}, WithEnclave()); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		h := moduleHealth(t, node, wire.SvcNull)
		return node.Counters().ModuleErrors == 1 && h.Errored == 1 && h.Panics == 0
	})
}

// TestDispatcherCloseRace: closing a dispatcher while other goroutines
// submit (Env.Inject lets any module goroutine do so at any time) and while
// an invocation is in flight must neither panic — the queue is the module
// ring now, and a send on a closed one would take the SN down — nor hang,
// and late submits are refused. Run with -race.
func TestDispatcherCloseRace(t *testing.T) {
	const submitters, each = 4, 64
	for iter := 0; iter < 25; iter++ {
		inFlight := make(chan struct{}, 1)
		inv := &funcInvoker{fn: func(*Packet) (Decision, error) {
			select {
			case inFlight <- struct{}{}:
			default:
			}
			return Decision{}, nil
		}}
		var applied atomic.Uint64
		d := newDispatcher(inv, dispatcherConfig{
			workers: 2,
			depth:   16,
			clk:     clock.Real{},
			apply:   func(*Packet, Decision) { applied.Add(1) },
			onError: func(*Packet, error) {},
		})
		start := make(chan struct{})
		var accepted atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < each; j++ {
					if d.submit(&Packet{}) {
						accepted.Add(1)
					}
				}
			}()
		}
		close(start)
		<-inFlight
		d.close()
		wg.Wait()
		if d.submit(&Packet{}) {
			t.Fatal("submit after close was accepted")
		}
		// close waited for the workers, so the served count is final: every
		// packet was either refused (counted) or accepted, and nothing is
		// served that was not accepted.
		if got := accepted.Load() + d.dropped.Load(); got != submitters*each+1 {
			t.Fatalf("accepted %d + dropped %d != %d submitted", accepted.Load(), d.dropped.Load(), submitters*each+1)
		}
		if applied.Load() > accepted.Load() {
			t.Fatalf("served %d packets, accepted only %d", applied.Load(), accepted.Load())
		}
	}
}

// funcInvoker adapts a function to the invoker interface for dispatcher
// unit tests.
type funcInvoker struct {
	fn func(*Packet) (Decision, error)
}

func (f *funcInvoker) invoke(pkt *Packet) (Decision, error) { return f.fn(pkt) }
func (f *funcInvoker) close() error                         { return nil }

// TestDispatcherErrorAndShedAccounting exercises the dispatcher directly:
// failed invocations hit onError and the error counter, and once the
// breaker opens, packets divert to the degrade callback and the shed
// counter without invoking the module.
func TestDispatcherErrorAndShedAccounting(t *testing.T) {
	manual := clock.NewManual(time.Unix(0, 0))
	var invokes, onErrs, degraded atomic.Uint64
	inv := &funcInvoker{fn: func(*Packet) (Decision, error) {
		invokes.Add(1)
		return Decision{}, errors.New("bad")
	}}
	d := newDispatcher(inv, dispatcherConfig{
		workers: 1,
		depth:   8,
		clk:     manual,
		brk:     newBreaker(2, time.Minute, manual),
		apply:   func(*Packet, Decision) {},
		onError: func(_ *Packet, err error) { onErrs.Add(1) },
		degrade: func(*Packet) { degraded.Add(1) },
	})
	defer d.close()

	for i := 0; i < 2; i++ {
		if !d.submit(&Packet{}) {
			t.Fatal("submit refused")
		}
	}
	waitFor(t, func() bool { return onErrs.Load() == 2 })
	if d.errored.Load() != 2 {
		t.Fatalf("errored = %d, want 2", d.errored.Load())
	}
	// Breaker open: further packets shed without invoking the module.
	for i := 0; i < 3; i++ {
		if !d.submit(&Packet{}) {
			t.Fatal("submit refused")
		}
	}
	waitFor(t, func() bool { return d.shed.Load() == 3 && degraded.Load() == 3 })
	if invokes.Load() != 2 {
		t.Fatalf("module invoked %d times, want 2 (shed packets must not invoke)", invokes.Load())
	}
}

// fakeIPCModuleServer accepts connections on l and serves framed exchanges
// with serve(connIndex, requestBody) choosing each response body.
func fakeIPCModuleServer(l net.Listener, serve func(connIdx uint64, req []byte) (resp []byte, dropConn bool)) {
	var conns atomic.Uint64
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		idx := conns.Add(1)
		go func(c net.Conn) {
			defer c.Close()
			var lenBuf [4]byte
			for {
				if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
					return
				}
				body := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
				if _, err := io.ReadFull(c, body); err != nil {
					return
				}
				resp, drop := serve(idx, body)
				if drop {
					return
				}
				binary.BigEndian.PutUint32(lenBuf[:], uint32(len(resp)))
				if _, err := c.Write(lenBuf[:]); err != nil {
					return
				}
				if _, err := c.Write(resp); err != nil {
					return
				}
			}
		}(c)
	}
}

// newTestIPCInvoker builds an ipcInvoker against a test-owned module server
// (so the test controls the response bytes) instead of the built-in one.
func newTestIPCInvoker(t *testing.T, clk clock.Clock, serve func(connIdx uint64, req []byte) ([]byte, bool)) (*ipcInvoker, *atomic.Uint64) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "mod.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go fakeIPCModuleServer(l, serve)
	var restarts atomic.Uint64
	inv := &ipcInvoker{
		sockPath:    sock,
		listener:    l,
		clk:         clk,
		retry:       pipe.NewBackoff(time.Millisecond, 8*time.Millisecond, 1),
		logf:        func(string, ...any) {},
		notePanic:   func(any) {},
		noteRestart: func() { restarts.Add(1) },
		stop:        make(chan struct{}),
		serverDone:  make(chan struct{}),
	}
	// The accept loop is test-owned; close() must not wait for one.
	close(inv.serverDone)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	inv.conn = conn
	t.Cleanup(func() { inv.close() })
	return inv, &restarts
}

// TestIPCDecodeFailureResync: a response frame that arrives but fails to
// decode means the stream offset can't be trusted. The invoker must close
// the poisoned connection and redial, not return it to the pool.
func TestIPCDecodeFailureResync(t *testing.T) {
	validDec, err := encodeDecision([]byte{0}, &Decision{})
	if err != nil {
		t.Fatal(err)
	}
	// Status byte 0 ("ok") followed by an undecodable body: the first
	// connection poisons the stream, later connections answer correctly.
	inv, restarts := newTestIPCInvoker(t, clock.Real{}, func(connIdx uint64, _ []byte) ([]byte, bool) {
		if connIdx == 1 {
			return []byte{0, 0xff, 0xff}, false
		}
		return validDec, false
	})
	pkt := &Packet{Src: wire.MustAddr("fd00::1"), Hdr: wire.ILPHeader{Service: wire.SvcNull, Conn: 1}}
	_, err = inv.invoke(pkt)
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("invoke on undecodable response = %v, want decode failure", err)
	}
	inv.mu.Lock()
	pooled := inv.conn != nil
	inv.mu.Unlock()
	if pooled {
		t.Fatal("poisoned connection left in the pool")
	}
	waitFor(t, func() bool { return restarts.Load() == 1 })
	if _, err := inv.invoke(pkt); err != nil {
		t.Fatalf("invoke after resync: %v", err)
	}
}

// TestIPCRestartingFastFail: while the module server is down and the
// redial is pending, invocations fail fast with ErrModuleRestarting
// instead of blocking a dispatcher worker.
func TestIPCRestartingFastFail(t *testing.T) {
	// Manual clock: the redial timer never fires, so the server stays down
	// for the whole test.
	manual := clock.NewManual(time.Unix(0, 0))
	inv, restarts := newTestIPCInvoker(t, manual, func(uint64, []byte) ([]byte, bool) {
		return nil, true // crash on the first request: drop the connection
	})
	pkt := &Packet{Src: wire.MustAddr("fd00::1"), Hdr: wire.ILPHeader{Service: wire.SvcNull, Conn: 1}}
	if _, err := inv.invoke(pkt); err == nil {
		t.Fatal("invoke on crashed server succeeded")
	}
	if _, err := inv.invoke(pkt); !errors.Is(err, ErrModuleRestarting) {
		t.Fatalf("invoke while down = %v, want ErrModuleRestarting", err)
	}
	if restarts.Load() != 0 {
		t.Fatalf("restarts = %d with frozen clock", restarts.Load())
	}
}

// ctrlPanicModule's control handler panics on op boom and answers op ping.
type ctrlPanicModule struct{ failModule }

var (
	opBoom     = control.NewOp[control.None, string](wire.SvcNull, "boom")
	opNullPing = control.NewOp[control.None, string](wire.SvcNull, "ping")
)

func (ctrlPanicModule) Name() string { return "ctrl-panicky" }
func (ctrlPanicModule) ControlOps() []ControlOp {
	return []ControlOp{
		Handle(opBoom, func(Env, wire.Addr, control.None) (string, error) { panic("control kaboom") }),
		Handle(opNullPing, func(Env, wire.Addr, control.None) (string, error) { return "pong", nil }),
	}
}

// TestControlPanicContained: a panicking control handler costs its caller
// an error response, not the SN. The panic is counted like a packet-path
// one, and the node goes on answering control requests.
func TestControlPanicContained(t *testing.T) {
	network := netsim.NewNetwork()
	node := newTestSN(t, network, "fd00::5")
	if err := node.Register(ctrlPanicModule{}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, network, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	invoke := func(op string) control.Response {
		t.Helper()
		return cl.control(t, node.Addr(), 7, rawRequest(wire.SvcNull, op, ""))
	}
	if resp := invoke("boom"); resp.OK || !strings.Contains(resp.Error, "panicked") {
		t.Fatalf("panicking op answered %+v, want a panic error", resp)
	}
	if h := moduleHealth(t, node, wire.SvcNull); h.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", h.Panics)
	}
	if v := node.Telemetry().Snapshot().Value(`sn_module_panics_total{module="ctrl-panicky"}`); v != 1 {
		t.Fatalf("sn_module_panics_total = %v, want 1", v)
	}
	if v := node.Telemetry().Snapshot().Value(controlOpsName("null", "boom", "panic")); v != 1 {
		t.Fatalf("boom panics counted by the dispatch = %v, want 1", v)
	}
	if resp := invoke("ping"); !resp.OK || string(resp.Data) != `"pong"` {
		t.Fatalf("op after the panic answered %+v", resp)
	}
	if resp := invoke("health"); !resp.OK {
		t.Fatalf("health after the panic: %s", resp.Error)
	}
}
