package host

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"strings"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// echoModule reflects payloads back to the sender.
type echoModule struct{}

func (echoModule) Service() wire.ServiceID { return wire.SvcEcho }
func (echoModule) Name() string            { return "echo" }
func (echoModule) Version() string         { return "1" }
func (echoModule) HandlePacket(env sn.Env, pkt *sn.Packet) (sn.Decision, error) {
	return sn.Decision{Forwards: []sn.Forward{{Dst: pkt.Src}}}, nil
}

// echoModule's control ops: status answers, broken refuses.
var (
	opStatus = control.NewOp[control.None, string](wire.SvcEcho, "status")
	opBroken = control.NewOp[control.None, control.None](wire.SvcEcho, "broken")
)

func (echoModule) ControlOps() []sn.ControlOp {
	return []sn.ControlOp{
		sn.Handle(opStatus, func(sn.Env, wire.Addr, control.None) (string, error) { return "ready", nil }),
		sn.Handle(opBroken, func(sn.Env, wire.Addr, control.None) (control.None, error) {
			return control.None{}, errors.New("bad op")
		}),
	}
}

func newSN(t *testing.T, net *netsim.Network, addr string) *sn.SN {
	t.Helper()
	tr, err := net.Attach(wire.MustAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	node, err := sn.New(sn.Config{Transport: tr, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Register(echoModule{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

func newHost(t *testing.T, net *netsim.Network, addr string, edit ...func(*Config)) *Host {
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
	for _, e := range edit {
		e(&cfg)
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestAssociateAndFirstHop(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1")
	if _, err := h.FirstHop(); err != ErrNoFirstHop {
		t.Fatalf("err = %v, want ErrNoFirstHop", err)
	}
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	fh, err := h.FirstHop()
	if err != nil || fh != node.Addr() {
		t.Fatalf("first hop %s err %v", fh, err)
	}
	// Idempotent.
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := len(h.FirstHops()); got != 1 {
		t.Fatalf("first hops = %d", got)
	}
	if id, ok := h.SNIdentity(node.Addr()); !ok || !id.Equal(node.Identity().PublicKey()) {
		t.Fatal("SN identity not verified")
	}
}

func TestConnSendReceive(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1", func(c *Config) { c.FirstHops = []wire.Addr{} })
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("meta"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-conn.Receive():
		if string(msg.Payload) != "hello" || msg.Src != node.Addr() {
			t.Fatalf("msg %+v", msg)
		}
		if string(msg.Hdr.Data) != "meta" {
			t.Fatalf("hdr data %q", msg.Hdr.Data)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestConfiguredFirstHops(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1", func(c *Config) {
		c.FirstHops = []wire.Addr{node.Addr()}
	})
	fh, err := h.FirstHop()
	if err != nil || fh != node.Addr() {
		t.Fatalf("first hop %v err %v", fh, err)
	}
}

func TestInvokeControl(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	status, err := opStatus.CallFirstHop(h, control.None{})
	if err != nil {
		t.Fatal(err)
	}
	if status != "ready" {
		t.Fatalf("status = %q", status)
	}
}

func TestInvokeControlError(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	_, err := opBroken.Call(h, node.Addr(), control.None{})
	if !errors.Is(err, control.ErrRefused) || !strings.Contains(err.Error(), "bad op") {
		t.Fatalf("err = %v, want control.ErrRefused with the handler's error", err)
	}
}

func TestInvokeTimeout(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1", func(c *Config) {
		c.InvokeTimeout = 50 * time.Millisecond
	})
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// Partition after association so the request vanishes.
	net.Partition(h.Addr(), node.Addr())
	_, err := opStatus.Call(h, node.Addr(), control.None{})
	if err != ErrInvokeTimeout {
		t.Fatalf("err = %v, want ErrInvokeTimeout", err)
	}
}

func TestServiceHandlerReceivesUnclaimed(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	got := make(chan Message, 1)
	h.OnService(wire.SvcPubSub, func(msg Message) { got <- msg })

	// SN pushes an unsolicited pub/sub delivery to the host.
	hdr := wire.ILPHeader{Service: wire.SvcPubSub, Conn: 999, Data: []byte("topic")}
	if err := node.Pipes().Send(h.Addr(), &hdr, []byte("event")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "event" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestUnclaimedCounted(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	hdr := wire.ILPHeader{Service: wire.SvcMixnet, Conn: 5}
	if err := node.Pipes().Send(h.Addr(), &hdr, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for h.UnclaimedPackets() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unclaimed never counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDirectConnectivity(t *testing.T) {
	net := netsim.NewNetwork()
	// Two hosts in the same /120.
	a := newHost(t, net, "fd00::a01", func(c *Config) {
		c.Direct = SameSubnet(wire.MustAddr("fd00::a01"), 120)
	})
	b := newHost(t, net, "fd00::a02")
	got := make(chan Message, 1)
	b.OnService(wire.SvcEcho, func(msg Message) { got <- msg })

	if err := a.SendDirect(b.Addr(), wire.SvcEcho, 7, nil, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "direct" || msg.Src != a.Addr() {
			t.Fatalf("msg %+v", msg)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDirectDeniedByPolicy(t *testing.T) {
	net := netsim.NewNetwork()
	a := newHost(t, net, "fd00::a01", func(c *Config) {
		c.Direct = SameSubnet(wire.MustAddr("fd00::a01"), 120)
	})
	// Different subnet.
	err := a.SendDirect(wire.MustAddr("fd00::b01"), wire.SvcEcho, 7, nil, nil)
	if err != ErrDirectDenied {
		t.Fatalf("err = %v, want ErrDirectDenied", err)
	}
	// No policy at all.
	b := newHost(t, net, "fd00::a02")
	if err := b.SendDirect(a.Addr(), wire.SvcEcho, 7, nil, nil); err != ErrDirectDenied {
		t.Fatalf("err = %v, want ErrDirectDenied", err)
	}
}

func TestSameSubnetPolicy(t *testing.T) {
	self := wire.MustAddr("fd00::1:0:0:1")
	pol := SameSubnet(self, 64)
	if !pol(wire.MustAddr("fd00::2:0:0:9")) {
		t.Fatal("same /64 denied")
	}
	if pol(wire.MustAddr("fd01::1")) {
		t.Fatal("different /64 allowed")
	}
	if pol(wire.MustAddr("10.0.0.1")) {
		t.Fatal("v4 vs v6 allowed")
	}
	pol4 := SameSubnet(wire.MustAddr("10.1.2.3"), 24)
	if !pol4(wire.MustAddr("10.1.2.200")) {
		t.Fatal("same /24 denied")
	}
	if pol4(wire.MustAddr("10.1.3.1")) {
		t.Fatal("different /24 allowed")
	}
}

func TestConnViaPinsSN(t *testing.T) {
	net := netsim.NewNetwork()
	sn1 := newSN(t, net, "fd00::100")
	sn2 := newSN(t, net, "fd00::200")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(sn1.Addr()); err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcEcho, Via(sn2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Via() != sn2.Addr() {
		t.Fatalf("via = %s", conn.Via())
	}
	if err := conn.Send(nil, []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-conn.Receive():
		if msg.Src != sn2.Addr() {
			t.Fatalf("echo came from %s, want %s", msg.Src, sn2.Addr())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
	// sn1 saw none of this traffic.
	if sn1.Counters().RxPackets != 0 {
		t.Fatal("pinned connection leaked through default SN")
	}
}

func TestConnCloseStopsDelivery(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	conn.Close() // double close is safe
	if _, ok := <-conn.Receive(); ok {
		t.Fatal("receive channel not closed")
	}
}

// §3.3 resiliency: for stateless services, SN failure is recoverable — the
// host re-associates with another SN and traffic continues.
func TestFailoverToSecondSN(t *testing.T) {
	net := netsim.NewNetwork()
	sn1 := newSN(t, net, "fd00::100")
	sn2 := newSN(t, net, "fd00::200")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(sn1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := h.Associate(sn2.Addr()); err != nil {
		t.Fatal(err)
	}
	// sn1 dies.
	sn1.Close()
	h.Disassociate(sn1.Addr())
	fh, err := h.FirstHop()
	if err != nil || fh != sn2.Addr() {
		t.Fatalf("failover first hop %s err %v", fh, err)
	}
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(nil, []byte("after failover")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-conn.Receive():
		if string(msg.Payload) != "after failover" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout after failover")
	}
}

func TestHostAuthorizePinning(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	trusted := node.Identity().PublicKey()
	h := newHost(t, net, "fd00::1", func(c *Config) {
		c.Authorize = func(addr wire.Addr, id ed25519.PublicKey) bool {
			return id.Equal(trusted)
		}
	})
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	// An SN with a different identity is refused.
	rogue := newSN(t, net, "fd00::666")
	hsErr := h.Associate(rogue.Addr())
	if hsErr == nil {
		t.Fatal("associated with rogue SN")
	}
}

// TestRetainedPayloadSurvivesLaterPackets: a Message's Payload is the
// application's to keep — the host hands over the buffer the transport gave
// the pipe, without copying it — so a payload held on to must read the same,
// byte for byte, after a thousand later packets have come through the same
// pipe, receive worker and connection.
func TestRetainedPayloadSurvivesLaterPackets(t *testing.T) {
	net := netsim.NewNetwork()
	node := newSN(t, net, "fd00::100")
	h := newHost(t, net, "fd00::1")
	if err := h.Associate(node.Addr()); err != nil {
		t.Fatal(err)
	}
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payloadOf := func(i int) []byte {
		p := make([]byte, 16+i%700)
		for j := range p {
			p[j] = byte(i*13 + j*5)
		}
		return p
	}
	const later = 1000
	kept := make([][]byte, 0, later+1)
	for i := 0; i <= later; i++ {
		if err := conn.Send(nil, payloadOf(i)); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-conn.Receive():
			kept = append(kept, msg.Payload)
		case <-time.After(3 * time.Second):
			t.Fatalf("echo %d never came back", i)
		}
	}
	for i, p := range kept {
		if !bytes.Equal(p, payloadOf(i)) {
			t.Fatalf("payload %d, retained since it was delivered, no longer reads what was sent", i)
		}
	}
}
