package sn

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// releasePayload is the payload packet seq of connection conn carries: both
// numbers, then a pattern no other packet shares. Every packet of the test is
// the same size, so every buffer is of one pool class and a released one is
// the very next to be written.
func releasePayload(conn, seq int) []byte {
	p := make([]byte, 200)
	binary.BigEndian.PutUint32(p, uint32(conn))
	binary.BigEndian.PutUint32(p[4:], uint32(seq))
	for j := 8; j < len(p); j++ {
		p[j] = byte(conn*101 + seq*31 + j*7)
	}
	return p
}

// keeper collects payloads without copying them — what the ownership rule
// lets every holder do — for a check at the end of the test.
type keeper struct {
	mu      sync.Mutex
	kept    []keptPayload
	arrived chan struct{}
}

// keptPayload is a payload as it was handed over, and which packet's it was
// when it was: a recycled buffer reads as some later packet, intact.
type keptPayload struct {
	conn, seq int
	payload   []byte
}

func newKeeper() *keeper { return &keeper{arrived: make(chan struct{}, 4096)} }

func (k *keeper) keep(payload []byte) {
	kp := keptPayload{conn: -1, payload: payload}
	if len(payload) >= 8 {
		kp.conn, kp.seq = int(binary.BigEndian.Uint32(payload)), int(binary.BigEndian.Uint32(payload[4:]))
	}
	k.mu.Lock()
	k.kept = append(k.kept, kp)
	k.mu.Unlock()
	k.arrived <- struct{}{}
}

func (k *keeper) await(t *testing.T, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-k.arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: %d of %d packets arrived", what, i, n)
		}
	}
}

// check reports every kept payload that no longer reads what was sent, and
// how many of them belong to connection conn.
func (k *keeper) check(t *testing.T, who string, conn int) int {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for _, kp := range k.kept {
		if kp.conn < 0 || !bytes.Equal(kp.payload, releasePayload(kp.conn, kp.seq)) {
			t.Errorf("%s: the payload of packet %d of connection %d, kept since it was handed over, no longer reads what was sent", who, kp.seq, kp.conn)
			continue
		}
		if kp.conn == conn {
			n++
		}
	}
	return n
}

// holdModule is a slow-path module that holds on to every payload it sees,
// retaining the packet as a module that keeps packet bytes must.
type holdModule struct{ k *keeper }

func (holdModule) Service() wire.ServiceID { return wire.SvcNull }
func (holdModule) Name() string            { return "keep" }
func (holdModule) Version() string         { return "1" }
func (m holdModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	pkt.Retain()
	m.k.keep(pkt.Payload)
	return Decision{}, nil
}

// TestReleasedBuffersAreNeverSeenAgain: the SN gives a receive buffer back
// only when nothing can see it any more. Everything that may keep a payload
// does — a slow-path module, the receiver of a forward that had to wait for
// its pipe, and both receivers of a two-destination forward — then a
// thousand fast-path packets of the same size class go through, each one's
// buffer released and written again at once (race builds overwrite a buffer
// the moment it is released), and at the end every kept payload must still
// read what its packet carried.
func TestReleasedBuffersAreNeverSeenAgain(t *testing.T) {
	net := netsim.NewNetwork()
	moduleSaw := newKeeper()
	node := newTestSN(t, net, "fd00::5")
	if err := node.Register(holdModule{moduleSaw}); err != nil {
		t.Fatal(err)
	}
	// Three receivers that keep what they get; the SN has no pipe to the
	// third until a forward needs one.
	receiver := func(addr string) (wire.Addr, *keeper) {
		k := newKeeper()
		tr, err := net.Attach(wire.MustAddr(addr))
		if err != nil {
			t.Fatal(err)
		}
		id, err := handshake.NewIdentity()
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := pipe.New(pipe.Config{Transport: tr, Identity: id,
			Handler: func(_ pipe.Sender, _ wire.Addr, _ wire.ILPHeader, _, payload []byte) { k.keep(payload) }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mgr.Close() })
		return mgr.LocalAddr(), k
	}
	r1, k1 := receiver("fd00::a1")
	r2, k2 := receiver("fd00::a2")
	late, kLate := receiver("fd00::a3")
	for _, r := range []wire.Addr{r1, r2} {
		if err := node.Connect(r); err != nil {
			t.Fatal(err)
		}
	}
	cl := newClient(t, net, "fd00::1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}

	const (
		connModule = 1 + iota // no rule: the module keeps the payload
		connLate              // cached forward to a peer with no pipe yet: requeued
		connFanout            // cached forward to two receivers
		connLater             // the thousand packets that follow
	)
	rule := func(conn int, a cache.Action) {
		node.Cache().Add(wire.FlowKey{Src: cl.addr, Service: wire.SvcNull, Conn: wire.ConnectionID(conn)}, a)
	}
	rule(connLate, cache.Action{Forward: []wire.Addr{late}})
	rule(connFanout, cache.Action{Forward: []wire.Addr{r1, r2}})
	rule(connLater, cache.Action{Forward: []wire.Addr{r1}})
	send := func(conn, seq int) {
		t.Helper()
		hdr := wire.ILPHeader{Service: wire.SvcNull, Conn: wire.ConnectionID(conn)}
		if err := cl.mgr.Send(node.Addr(), &hdr, releasePayload(conn, seq)); err != nil {
			t.Fatal(err)
		}
	}

	const each = 8
	for seq := 0; seq < each; seq++ {
		send(connModule, seq)
		send(connLate, seq)
		send(connFanout, seq)
	}
	moduleSaw.await(t, each, "module")
	kLate.await(t, each, "requeued forward")
	k1.await(t, each, "fan-out, first receiver")
	k2.await(t, each, "fan-out, second receiver")
	if node.Telemetry().Snapshot().Value("sn_requeued_total") == 0 {
		t.Error("no forward waited for its pipe; the requeue path was not exercised")
	}

	const later = 1000
	for seq := 0; seq < later; seq += 50 {
		for i := 0; i < 50; i++ {
			send(connLater, seq+i)
		}
		k1.await(t, 50, "later packets")
	}

	moduleSaw.check(t, "module", 0)
	if n := kLate.check(t, "receiver of the requeued forwards", connLate); n != each {
		t.Errorf("receiver of the requeued forwards holds %d of %d intact packets", n, each)
	}
	if n := k1.check(t, "first receiver", connFanout); n != each {
		t.Errorf("first fan-out receiver holds %d of %d intact copies", n, each)
	}
	if n := k2.check(t, "second receiver", connFanout); n != each {
		t.Errorf("second fan-out receiver holds %d of %d intact copies", n, each)
	}
	// Released: every hit. Not released: what the module was handed.
	if got, want := node.Telemetry().Snapshot().Value("sn_rx_buffers_released_total"), float64(later+2*each); got != want {
		t.Errorf("sn_rx_buffers_released_total = %v, want %v (the later packets, the requeued and the fanned-out forwards)", got, want)
	}
}

// forwardModule is a slow-path module that forwards every packet, unchanged,
// to dst.
type forwardModule struct{ dst wire.Addr }

func (forwardModule) Service() wire.ServiceID { return wire.SvcNull }
func (forwardModule) Name() string            { return "forward" }
func (forwardModule) Version() string         { return "1" }
func (m forwardModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	return Decision{Forwards: []Forward{{Dst: m.dst}}}, nil
}

// TestInjectedBytesStayTheCallers: Inject never gives the caller's bytes to
// the receive pool. One payload slice and one header with no service data
// go in a thousand times through a module miss and a thousand times through
// a cache hit, a window of packets in flight at a time (the benchmark's
// sn.inject row); every packet comes out, the payload still reads what it
// did (race builds overwrite a released buffer), and the SN counts no
// receive buffer given back.
func TestInjectedBytesStayTheCallers(t *testing.T) {
	const (
		each   = 1000
		window = 127 // within the module's queue (256): a full queue sheds
	)
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	tr, err := net.Attach(wire.MustAddr("fd00::1"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Uint64
	h, err := pipe.New(pipe.Config{Transport: tr, Identity: id,
		Handler: func(pipe.Sender, wire.Addr, wire.ILPHeader, []byte, []byte) { got.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	if err := h.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := node.Register(forwardModule{h.LocalAddr()}); err != nil {
		t.Fatal(err)
	}

	hdr := wire.ILPHeader{Service: wire.SvcNull, Conn: 1}
	payload := releasePayload(1, 0)
	var sent uint64
	settle := func(ahead uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); sent-got.Load() > ahead; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d injected packets came out", got.Load(), sent)
			}
		}
	}
	inject := func(path string) {
		t.Helper()
		for i := 0; i < each; i++ {
			settle(window)
			node.Inject(h.LocalAddr(), hdr, payload)
			sent++
		}
		settle(0)
		if !bytes.Equal(payload, releasePayload(1, 0)) {
			t.Fatalf("%s: the injected payload no longer reads what the caller wrote", path)
		}
	}

	inject("module miss")
	node.Cache().Add(wire.FlowKey{Src: h.LocalAddr(), Service: hdr.Service, Conn: hdr.Conn},
		cache.Action{Forward: []wire.Addr{h.LocalAddr()}})
	inject("cache hit")
	st := node.Telemetry().Snapshot()
	if st.Value("sn_slowpath_sent_total") != each || st.Value("sn_fastpath_hits_total") != each {
		t.Errorf("slow path %v, fast path %v, want %d each", st.Value("sn_slowpath_sent_total"), st.Value("sn_fastpath_hits_total"), each)
	}
	if v := st.Value("sn_rx_buffers_released_total"); v != 0 {
		t.Errorf("sn_rx_buffers_released_total = %v, want 0: an injected packet has no receive buffer", v)
	}
}
