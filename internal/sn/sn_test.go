package sn

import (
	"encoding/json"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// echoModule bounces every packet back to its sender with the payload
// reversed, and optionally installs a cache rule for the flow.
type echoModule struct {
	installRule bool
	calls       atomic.Uint64
	started     atomic.Bool
	stopped     atomic.Bool
}

func (m *echoModule) Service() wire.ServiceID { return wire.SvcEcho }
func (m *echoModule) Name() string            { return "echo" }
func (m *echoModule) Version() string         { return "1" }
func (m *echoModule) Start(env Env) error     { m.started.Store(true); return nil }
func (m *echoModule) Stop() error             { m.stopped.Store(true); return nil }

func (m *echoModule) HandlePacket(env Env, pkt *Packet) (Decision, error) {
	m.calls.Add(1)
	rev := make([]byte, len(pkt.Payload))
	for i, b := range pkt.Payload {
		rev[len(rev)-1-i] = b
	}
	d := Decision{Forwards: []Forward{{Dst: pkt.Src, Payload: rev}}}
	if m.installRule {
		d.Rules = append(d.Rules, Rule{
			Key:    pkt.Key(),
			Action: cache.Action{Forward: []wire.Addr{pkt.Src}},
		})
	}
	return d, nil
}

// failModule always errors.
type failModule struct{}

func (failModule) Service() wire.ServiceID { return wire.SvcNull }
func (failModule) Name() string            { return "fail" }
func (failModule) Version() string         { return "1" }
func (failModule) HandlePacket(Env, *Packet) (Decision, error) {
	return Decision{}, errors.New("boom")
}

// ctrlModule answers control ops.
type ctrlModule struct{}

// ctrlModule's ops: ping echoes its raw args, peers counts the addresses
// it is given, refuse always fails.
var (
	opPing   = control.NewOp[json.RawMessage, map[string]string](wire.SvcQoS, "ping")
	opPeers  = control.NewOp[[]wire.Addr, int](wire.SvcQoS, "peers")
	opRefuse = control.NewOp[control.None, control.None](wire.SvcQoS, "refuse")
)

func (ctrlModule) Service() wire.ServiceID { return wire.SvcQoS }
func (ctrlModule) Name() string            { return "ctrl" }
func (ctrlModule) Version() string         { return "1" }
func (ctrlModule) HandlePacket(Env, *Packet) (Decision, error) {
	return Decision{}, nil
}
func (ctrlModule) ControlOps() []ControlOp {
	return []ControlOp{
		Handle(opPing, func(_ Env, _ wire.Addr, args json.RawMessage) (map[string]string, error) {
			return map[string]string{"pong": string(args)}, nil
		}),
		Handle(opPeers, func(_ Env, _ wire.Addr, peers []wire.Addr) (int, error) { return len(peers), nil }),
		Handle(opRefuse, func(Env, wire.Addr, control.None) (control.None, error) {
			return control.None{}, errors.New("refused")
		}),
	}
}

// client is a raw pipe endpoint playing the role of a host.
type client struct {
	mgr  *pipe.Manager
	addr wire.Addr
	rx   chan clientPkt
}

type clientPkt struct {
	src     wire.Addr
	hdr     wire.ILPHeader
	payload []byte
}

func newClient(t *testing.T, net *netsim.Network, addr string) *client {
	t.Helper()
	tr, err := net.Attach(wire.MustAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	rx := make(chan clientPkt, 1024)
	mgr, err := pipe.New(pipe.Config{
		Transport: tr,
		Identity:  id,
		Handler: func(_ pipe.Sender, src wire.Addr, hdr wire.ILPHeader, _ []byte, payload []byte) {
			rx <- clientPkt{src: src, hdr: hdr, payload: payload}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return &client{mgr: mgr, addr: wire.MustAddr(addr), rx: rx}
}

func newTestSN(t *testing.T, net *netsim.Network, addr string, cfgEdit ...func(*Config)) *SN {
	t.Helper()
	tr, err := net.Attach(wire.MustAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Transport: tr, Identity: id}
	for _, e := range cfgEdit {
		e(&cfg)
	}
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

func (c *client) await(t *testing.T) clientPkt {
	t.Helper()
	select {
	case p := <-c.rx:
		return p
	case <-time.After(3 * time.Second):
		t.Fatal("timeout awaiting packet")
		return clientPkt{}
	}
}

func testSlowPathRoundTrip(t *testing.T, transport Transport, useEnclave bool) {
	t.Helper()
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	mod := &echoModule{}
	opts := []ModuleOption{WithTransport(transport)}
	if useEnclave {
		opts = append(opts, WithEnclave())
	}
	if err := node.Register(mod, opts...); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1, Data: []byte("meta")}
	if err := cl.mgr.Send(node.Addr(), &hdr, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got := cl.await(t)
	if string(got.payload) != "cba" {
		t.Fatalf("payload %q, want %q", got.payload, "cba")
	}
	if got.hdr.Service != wire.SvcEcho || got.hdr.Conn != 1 || string(got.hdr.Data) != "meta" {
		t.Fatalf("header %+v", got.hdr)
	}
	if mod.calls.Load() != 1 {
		t.Fatalf("module calls = %d", mod.calls.Load())
	}
}

func TestSlowPathChan(t *testing.T)    { testSlowPathRoundTrip(t, TransportChan, false) }
func TestSlowPathDirect(t *testing.T)  { testSlowPathRoundTrip(t, TransportDirect, false) }
func TestSlowPathIPC(t *testing.T)     { testSlowPathRoundTrip(t, TransportIPC, false) }
func TestSlowPathEnclave(t *testing.T) { testSlowPathRoundTrip(t, TransportChan, true) }
func TestSlowPathIPCEnclave(t *testing.T) {
	testSlowPathRoundTrip(t, TransportIPC, true)
}

// emptyingModule answers every packet with a copy to its sender that
// carries no payload.
type emptyingModule struct{}

func (emptyingModule) Service() wire.ServiceID { return wire.SvcEcho }
func (emptyingModule) Name() string            { return "emptying" }
func (emptyingModule) Version() string         { return "1" }
func (emptyingModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	return Decision{Forwards: []Forward{{Dst: pkt.Src, Payload: []byte{}}}}, nil
}

// TestEmptiedPayloadStaysEmpty: a verdict whose payload is empty, not nil,
// sends no payload, however the verdict travels — in process, encoded over
// the IPC transport, or out of an enclave. (Nil forwards the original.)
func TestEmptiedPayloadStaysEmpty(t *testing.T) {
	for name, opts := range map[string][]ModuleOption{
		"chan":    {WithTransport(TransportChan)},
		"ipc":     {WithTransport(TransportIPC)},
		"enclave": {WithEnclave()},
	} {
		t.Run(name, func(t *testing.T) {
			net := netsim.NewNetwork()
			node := newTestSN(t, net, "fd00::5")
			if err := node.Register(emptyingModule{}, opts...); err != nil {
				t.Fatal(err)
			}
			cl := newClient(t, net, "fd00::1")
			if err := cl.mgr.Connect(node.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}, []byte("original")); err != nil {
				t.Fatal(err)
			}
			if got := cl.await(t); len(got.payload) != 0 {
				t.Fatalf("the receiver got payload %q, want none", got.payload)
			}
		})
	}
}

// TestFigure2PipelineEquivalence pins the Figure 2 invariant: once a module
// installs a decision-cache rule, the fast path must make the same
// forwarding decision the slow path made, with the module no longer
// consulted.
func TestFigure2PipelineEquivalence(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	mod := &echoModule{installRule: true}
	if err := node.Register(mod); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 9}
	// First packet: slow path, installs rule, echoes reversed payload.
	if err := cl.mgr.Send(node.Addr(), &hdr, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	first := cl.await(t)
	if string(first.payload) != "yx" {
		t.Fatalf("slow path payload %q", first.payload)
	}
	// Subsequent packets: fast path forwards (unmodified) to the same
	// destination without invoking the module.
	for i := 0; i < 5; i++ {
		if err := cl.mgr.Send(node.Addr(), &hdr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		got := cl.await(t)
		if len(got.payload) != 1 || got.payload[0] != byte(i) {
			t.Fatalf("fast path payload %v", got.payload)
		}
	}
	if mod.calls.Load() != 1 {
		t.Fatalf("module invoked %d times, want 1 (cache must serve the rest)", mod.calls.Load())
	}
	c := node.Telemetry().Snapshot()
	if c.Value("sn_fastpath_hits_total") != 5 {
		t.Fatalf("FastPathHits = %v, want 5", c.Value("sn_fastpath_hits_total"))
	}
	if c.Value("sn_slowpath_sent_total") != 1 {
		t.Fatalf("SlowPathSent = %v, want 1", c.Value("sn_slowpath_sent_total"))
	}
}

func TestNoModuleDrops(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcMixnet, Conn: 1}
	if err := cl.mgr.Send(node.Addr(), &hdr, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return node.Telemetry().Snapshot().Value("sn_no_module_drops_total") == 1 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestModuleErrorCounted(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(failModule{}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return node.Telemetry().Snapshot().Value("sn_module_errors_total") == 1 })
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(&echoModule{}); err != nil {
		t.Fatal(err)
	}
	if err := node.Register(&echoModule{}); err == nil {
		t.Fatal("duplicate registration succeeded")
	}
}

func TestStarterStopperLifecycle(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	mod := &echoModule{}
	if err := node.Register(mod); err != nil {
		t.Fatal(err)
	}
	if !mod.started.Load() {
		t.Fatal("Start not called")
	}
	node.Close()
	if !mod.stopped.Load() {
		t.Fatal("Stop not called")
	}
}

func TestDropRuleOnFastPath(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	key := wire.FlowKey{Src: cl.addr, Service: wire.SvcNull, Conn: 4}
	node.Cache().Add(key, cache.Action{Drop: true})
	for i := 0; i < 3; i++ {
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 4}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return node.Telemetry().Snapshot().Value("sn_rule_drops_total") == 3 })
}

func TestMultiDestinationForwardRule(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	cl := newClient(t, net, "fd00::1")
	d1 := newClient(t, net, "fd00::2")
	d2 := newClient(t, net, "fd00::3")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// The SN will auto-connect to d1/d2 when forwarding.
	key := wire.FlowKey{Src: cl.addr, Service: wire.SvcNull, Conn: 4}
	node.Cache().Add(key, cache.Action{Forward: []wire.Addr{d1.addr, d2.addr}})
	if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: 4}, []byte("copy")); err != nil {
		t.Fatal(err)
	}
	got1, got2 := d1.await(t), d2.await(t)
	if string(got1.payload) != "copy" || string(got2.payload) != "copy" {
		t.Fatalf("payloads %q %q", got1.payload, got2.payload)
	}
	// A receiver can hold its copy before the establish-and-flush goroutine
	// that sent it has counted it; each goroutine is done, counts and all,
	// once it has taken its destination out of dialing.
	for deadline := time.Now().Add(3 * time.Second); ; runtime.Gosched() {
		node.mu.Lock()
		flushing := len(node.dialing)
		node.mu.Unlock()
		if flushing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d destinations still flushing", flushing)
		}
	}
	if c := node.Telemetry().Snapshot(); c.Value("sn_forwarded_total") != 2 {
		t.Fatalf("Forwarded = %v, want 2", c.Value("sn_forwarded_total"))
	}
}

func TestControlProtocol(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(ctrlModule{}); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	resp := cl.control(t, node.Addr(), 42, rawRequest(wire.SvcQoS, "ping", `"hi"`))
	if !resp.OK || string(resp.Data) != `{"pong":"\"hi\""}` {
		t.Fatalf("resp %+v data=%s", resp, resp.Data)
	}
}

func TestControlUnknownServiceErrors(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if resp := cl.control(t, node.Addr(), 1, rawRequest(wire.SvcVPN, "x", "")); resp.OK || resp.Error == "" {
		t.Fatalf("resp %+v", resp)
	}
}

func TestEnvConfigAndCheckpoint(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	env := &snEnv{sn: node, module: "m1", service: wire.SvcNull}
	env2 := &snEnv{sn: node, module: "m2", service: wire.SvcEcho}

	env.SetConfig("k", []byte("v1"))
	if v, ok := env.Config("k"); !ok || string(v) != "v1" {
		t.Fatalf("config %q %v", v, ok)
	}
	if _, ok := env2.Config("k"); ok {
		t.Fatal("config leaked across module namespaces")
	}
	env.Checkpoint("state", []byte("snapshot"))
	if v, ok := env.Restore("state"); !ok || string(v) != "snapshot" {
		t.Fatalf("restore %q %v", v, ok)
	}
	if _, ok := env2.Restore("state"); ok {
		t.Fatal("checkpoint leaked across module namespaces")
	}
}

func TestEnclaveMeasurementInTPM(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(&echoModule{}, WithEnclave()); err != nil {
		t.Fatal(err)
	}
	encl, ok := node.ModuleEnclave(wire.SvcEcho)
	if !ok {
		t.Fatal("no enclave for enclave-registered module")
	}
	quote, err := encl.Attest([]byte("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quote.Sig) == 0 {
		t.Fatal("empty quote signature")
	}
}

func TestSlowPathQueueOverflow(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	block := make(chan struct{})
	mod := &blockingModule{block: block}
	if err := node.Register(mod, WithQueueDepth(2)); err != nil {
		t.Fatal(err)
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl.mgr.Send(node.Addr(), &wire.ILPHeader{Service: wire.SvcNull, Conn: wire.ConnectionID(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		c := node.Telemetry().Snapshot()
		return c.Value(`sn_module_dropped_total{module="blocking"}`) > 0 && c.Value("sn_rx_packets_total") == 10
	})
	close(block)
}

type blockingModule struct{ block chan struct{} }

func (m *blockingModule) Service() wire.ServiceID { return wire.SvcNull }
func (m *blockingModule) Name() string            { return "blocking" }
func (m *blockingModule) Version() string         { return "1" }
func (m *blockingModule) HandlePacket(Env, *Packet) (Decision, error) {
	<-m.block
	return Decision{}, nil
}
