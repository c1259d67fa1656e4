package pipe

import (
	"bytes"
	"crypto/ed25519"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/psp"
	"interedge/internal/wire"
)

type node struct {
	mgr  *Manager
	addr wire.Addr
	rx   chan received
}

type received struct {
	src     wire.Addr
	hdr     wire.ILPHeader
	payload []byte
}

func newNode(t *testing.T, n *netsim.Network, addr string, opts ...func(*Config)) *node {
	t.Helper()
	tr, err := n.Attach(wire.MustAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	rx := make(chan received, 256)
	cfg := Config{
		Transport: tr,
		Identity:  id,
		Handler: func(_ Sender, src wire.Addr, hdr wire.ILPHeader, _ []byte, payload []byte) {
			h := hdr
			h.Data = append([]byte(nil), hdr.Data...)
			rx <- received{src: src, hdr: h, payload: append([]byte(nil), payload...)}
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	mgr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return &node{mgr: mgr, addr: wire.MustAddr(addr), rx: rx}
}

func TestConnectAndSend(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")

	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	if !a.mgr.HasPeer(b.addr) {
		t.Fatal("initiator has no peer after Connect")
	}
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 42, Data: []byte("svc-data")}
	if err := a.mgr.Send(b.addr, &hdr, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.rx:
		if got.src != a.addr || got.hdr.Service != wire.SvcEcho || got.hdr.Conn != 42 ||
			string(got.hdr.Data) != "svc-data" || string(got.payload) != "payload" {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestBidirectionalAfterSingleHandshake(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	// Responder can send back immediately without its own Connect.
	waitPeer(t, b.mgr, a.addr)
	if err := b.mgr.Send(a.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-a.rx:
		if string(got.payload) != "reply" {
			t.Fatalf("payload %q", got.payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

// waitFor polls cond until it holds. Counters and callbacks are updated
// after the packet or the table change they report becomes visible, so a
// test that has just observed one waits for the other.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitPeer(t *testing.T, m *Manager, addr wire.Addr) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !m.HasPeer(addr) {
		if time.Now().After(deadline) {
			t.Fatal("peer never established")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConnectIdempotent(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	for i := 0; i < 3; i++ {
		if err := a.mgr.Connect(b.addr); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.mgr.Peers()); got != 1 {
		t.Fatalf("peers = %d, want 1", got)
	}
}

func TestConcurrentConnectSameDest(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.mgr.Connect(b.addr)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
}

func TestSimultaneousOpen(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = a.mgr.Connect(b.addr) }()
	go func() { defer wg.Done(); errB = b.mgr.Connect(a.addr) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("errA=%v errB=%v", errA, errB)
	}
	// Both sides converge on a working pipe.
	if err := a.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 9}, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.rx:
	case <-time.After(2 * time.Second):
		t.Fatal("b never received after simultaneous open")
	}
	if err := b.mgr.Send(a.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 9}, []byte("ba")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.rx:
	case <-time.After(2 * time.Second):
		t.Fatal("a never received after simultaneous open")
	}
}

func TestSendWithoutPipeFails(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	err := a.mgr.Send(wire.MustAddr("fd00::2"), &wire.ILPHeader{}, nil)
	if err == nil {
		t.Fatal("send without pipe succeeded")
	}
}

func TestHandshakeTimeout(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.HandshakeTimeout = 10 * time.Millisecond
		c.HandshakeRetries = 2
	})
	err := a.mgr.Connect(wire.MustAddr("fd00::dead"))
	if err != ErrHandshakeTimeout {
		t.Fatalf("err = %v, want ErrHandshakeTimeout", err)
	}
}

func TestHandshakeSurvivesLoss(t *testing.T) {
	net := netsim.NewNetwork(netsim.WithSeed(3))
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.HandshakeTimeout = 20 * time.Millisecond
		c.HandshakeRetries = 20
	})
	b := newNode(t, net, "fd00::2")
	net.SetLinkBoth(a.addr, b.addr, netsim.LinkProfile{LossRate: 0.5})
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatalf("handshake failed under 50%% loss: %v", err)
	}
}

func TestAuthorizationRejectsPeer(t *testing.T) {
	net := netsim.NewNetwork()
	reject := func(c *Config) {
		c.Authorize = func(wire.Addr, ed25519.PublicKey) bool { return false }
		c.HandshakeTimeout = 10 * time.Millisecond
		c.HandshakeRetries = 2
	}
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.HandshakeTimeout = 10 * time.Millisecond
		c.HandshakeRetries = 2
	})
	b := newNode(t, net, "fd00::2", reject)
	if err := a.mgr.Connect(b.addr); err == nil {
		t.Fatal("connect to rejecting peer succeeded")
	}
	if b.mgr.HasPeer(a.addr) {
		t.Fatal("rejecting peer still established pipe")
	}
}

func TestInitiatorAuthorizationRejects(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.Authorize = func(wire.Addr, ed25519.PublicKey) bool { return false }
		c.HandshakeTimeout = 10 * time.Millisecond
		c.HandshakeRetries = 3
	})
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != ErrUnauthorized {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
	if a.mgr.HasPeer(b.addr) {
		t.Fatal("unauthorized pipe installed")
	}
}

func TestOnPeerUpFiresOnBothSides(t *testing.T) {
	net := netsim.NewNetwork()
	var ups atomic.Int32
	opt := func(c *Config) {
		c.OnPeerUp = func(wire.Addr, ed25519.PublicKey) { ups.Add(1) }
	}
	a := newNode(t, net, "fd00::1", opt)
	b := newNode(t, net, "fd00::2", opt)
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ups.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("OnPeerUp fired %d times, want 2", ups.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPeerIdentityVerified(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	id, ok := a.mgr.PeerIdentity(b.addr)
	if !ok {
		t.Fatal("no identity for established peer")
	}
	if !id.Equal(b.mgr.Identity().PublicKey()) {
		t.Fatal("peer identity mismatch")
	}
}

func TestRotateAllKeepsPipesWorking(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.mgr.RotateAll(); err != nil {
			t.Fatal(err)
		}
		if err := a.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-b.rx:
			if got.payload[0] != byte(i) {
				t.Fatalf("rotation %d wrong payload", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("rotation %d: no delivery", i)
		}
	}
}

func TestCounters(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-b.rx:
		case <-time.After(2 * time.Second):
			t.Fatal("timeout draining")
		}
	}
	var aInfo PeerInfo
	for _, p := range a.mgr.Peers() {
		if p.Addr == b.addr {
			aInfo = p
		}
	}
	if aInfo.TxPackets != 5 {
		t.Fatalf("TxPackets = %d, want 5", aInfo.TxPackets)
	}
	var bInfo PeerInfo
	for _, p := range b.mgr.Peers() {
		if p.Addr == a.addr {
			bInfo = p
		}
	}
	if bInfo.RxPackets != 5 {
		t.Fatalf("RxPackets = %d, want 5", bInfo.RxPackets)
	}
}

func TestDropPeerSevers(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	a.mgr.DropPeer(b.addr)
	if err := a.mgr.Send(b.addr, &wire.ILPHeader{}, nil); err == nil {
		t.Fatal("send after DropPeer succeeded")
	}
	// Reconnect works.
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
}

func TestCloseUnblocksPendingConnect(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.HandshakeTimeout = time.Hour // would hang forever
		c.HandshakeRetries = 1
	})
	errCh := make(chan error, 1)
	go func() { errCh <- a.mgr.Connect(wire.MustAddr("fd00::dead")) }()
	time.Sleep(20 * time.Millisecond)
	a.mgr.Close()
	select {
	case err := <-errCh:
		if err != ErrManagerClosed {
			t.Fatalf("err = %v, want ErrManagerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Connect did not unblock on Close")
	}
}

func TestConnectAfterCloseFails(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	a.mgr.Close()
	if err := a.mgr.Connect(wire.MustAddr("fd00::2")); err != ErrManagerClosed {
		t.Fatalf("err = %v, want ErrManagerClosed", err)
	}
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	// Inject garbage frames directly at the transport level.
	tr, err := net.Attach(wire.MustAddr("fd00::bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, payload := range [][]byte{nil, {0xFF}, {byte(wire.FrameILP), 1, 2, 3}, {byte(wire.FrameHandshake1), 0}} {
		if err := tr.Send(wire.Datagram{Dst: b.addr, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	// The pipe still works.
	if err := a.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.rx:
		if string(got.payload) != "ok" {
			t.Fatalf("payload %q", got.payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

// TestRetransmittedMsg1KeepsEstablishedKeys replays the initiator's msg1
// after completing the handshake with the first msg2 — the retransmission
// race where the initiator's timer fires while msg2 is still in flight.
// The responder must answer idempotently (same msg2, same keys); re-running
// the responder side would re-key the established pipe with a secret the
// initiator never learns and silently poison it.
func TestRetransmittedMsg1KeepsEstablishedKeys(t *testing.T) {
	net := netsim.NewNetwork()
	b := newNode(t, net, "fd00::2")

	// Hand-rolled initiator over a raw endpoint, so the exact msg1 bytes
	// can be replayed.
	laddr := wire.MustAddr("fd00::9")
	tr, err := net.Attach(laddr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	hs, err := handshake.Initiate(id, laddr, b.addr)
	if err != nil {
		t.Fatal(err)
	}
	msg1 := append([]byte{byte(wire.FrameHandshake1)}, hs.Msg1()...)
	recvMsg2 := func() []byte {
		t.Helper()
		select {
		case dg := <-tr.Receive():
			if len(dg.Payload) < 1 || wire.FrameType(dg.Payload[0]) != wire.FrameHandshake2 {
				t.Fatalf("unexpected frame %v", dg.Payload)
			}
			return append([]byte(nil), dg.Payload[1:]...)
		case <-time.After(2 * time.Second):
			t.Fatal("no msg2")
		}
		return nil
	}

	if err := tr.Send(wire.Datagram{Dst: b.addr, Payload: msg1}); err != nil {
		t.Fatal(err)
	}
	first := recvMsg2()
	res, err := hs.Complete(first)
	if err != nil {
		t.Fatal(err)
	}
	crypto, err := psp.NewPipeCrypto(res.Master, res.Initiator, res.BaseSPI)
	if err != nil {
		t.Fatal(err)
	}

	// The retransmission: identical msg1 again.
	if err := tr.Send(wire.Datagram{Dst: b.addr, Payload: msg1}); err != nil {
		t.Fatal(err)
	}
	if second := recvMsg2(); !bytes.Equal(first, second) {
		t.Fatal("responder re-ran the handshake for a retransmitted msg1")
	}

	// Data sealed with the first exchange's keys must still be accepted.
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 7}
	hdrEnc, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := crypto.TX.Seal([]byte{byte(wire.FrameILP)}, hdrEnc, []byte("still-keyed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(wire.Datagram{Dst: b.addr, Payload: sealed}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.rx:
		if string(got.payload) != "still-keyed" {
			t.Fatalf("payload %q", got.payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("duplicate msg1 re-keyed the established pipe")
	}
}
