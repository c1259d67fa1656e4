package sn

import (
	"bytes"
	"sync"
	"testing"

	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn/cache"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// keepModule hands every packet it is given to a channel, as it got it.
type keepModule struct{ got chan *Packet }

func (m *keepModule) Service() wire.ServiceID { return wire.SvcEcho }
func (m *keepModule) Name() string            { return "keep" }
func (m *keepModule) Version() string         { return "1" }
func (m *keepModule) HandlePacket(_ Env, pkt *Packet) (Decision, error) {
	m.got <- pkt
	return Decision{}, nil
}

// transitTo wraps inner for the SN finalDst and returns the outer header and
// its encoding.
func transitTo(t *testing.T, finalDst, origSrc wire.Addr, inner wire.ILPHeader) (wire.ILPHeader, []byte) {
	t.Helper()
	outer, err := wire.TransitHeader(finalDst, origSrc, &inner)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := outer.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return outer, raw
}

// traceLog records trace events; the hook runs on rx workers.
type traceLog struct {
	mu  sync.Mutex
	evs []telemetry.PacketTrace
}

func (l *traceLog) hook(ev telemetry.PacketTrace) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *traceLog) count(p telemetry.TracePoint, svc wire.ServiceID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.evs {
		if ev.Point == p && ev.Service == svc {
			n++
		}
	}
	return n
}

// TestTransitUnwrapMiss: a transit packet addressed to this SN whose inner
// flow has no rule reaches the inner service's module with the original
// source and a header of its own, after one rx count and one rx trace event.
func TestTransitUnwrapMiss(t *testing.T) {
	var tl traceLog
	node := newTestSN(t, netsim.NewNetwork(), "fd00::5", func(c *Config) { c.Trace = tl.hook })
	mod := &keepModule{got: make(chan *Packet, 1)}
	if err := node.Register(mod); err != nil {
		t.Fatal(err)
	}
	prevHop, origSrc := wire.MustAddr("fd00::b1"), wire.MustAddr("fd00::77")
	_, raw := transitTo(t, node.Addr(), origSrc, wire.ILPHeader{Service: wire.SvcEcho, Conn: 3, Data: []byte("inner-data")})
	var decoded wire.ILPHeader // as the pipe hands it over: Data aliasing raw
	if _, err := decoded.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	node.handlePacket(node.mgr, prevHop, decoded, raw, []byte("payload"))
	pkt := <-mod.got
	for i := range raw { // the rx worker's scratch buffer moves on
		raw[i] = 0xEE
	}
	if pkt.Src != origSrc || pkt.Hdr.Service != wire.SvcEcho || pkt.Hdr.Conn != 3 ||
		string(pkt.Hdr.Data) != "inner-data" || string(pkt.Payload) != "payload" {
		t.Fatalf("module got %+v", pkt)
	}
	c := node.Counters()
	if c.RxPackets != 1 || c.SlowPathSent != 1 || node.transitUnwrapped.Load() != 1 || node.transitMalformed.Load() != 0 {
		t.Fatalf("rx %d slow %d unwrapped %d malformed %d", c.RxPackets, c.SlowPathSent,
			node.transitUnwrapped.Load(), node.transitMalformed.Load())
	}
	if rx, inner := tl.count(telemetry.TraceRx, wire.SvcPeering), tl.count(telemetry.TraceRx, wire.SvcEcho); rx != 1 || inner != 0 {
		t.Fatalf("TraceRx fired %d times for the datagram and %d for the nested packet, want 1 and 0", rx, inner)
	}
	if tl.count(telemetry.TraceSlowPath, wire.SvcEcho) != 1 {
		t.Fatal("no slow-path trace event for the inner packet")
	}
}

// TestTransitUnwrapHit: over a real pipe (the batch terminus), a transit
// packet whose inner flow is warm is one cache hit, forwarded under the
// inner header; a transit packet for another SN is looked up as it is.
func TestTransitUnwrapHit(t *testing.T) {
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")
	cl := newClient(t, net, "fd00::b1")
	if err := cl.mgr.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}
	origSrc := wire.MustAddr("fd00::77")
	inner := wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 9, Data: []byte("0123456789abcdef")}
	node.Cache().Add(wire.FlowKey{Src: origSrc, Service: inner.Service, Conn: inner.Conn},
		cache.Action{Forward: []wire.Addr{cl.addr}})
	outer, _ := transitTo(t, node.Addr(), origSrc, inner)
	through, _ := transitTo(t, wire.MustAddr("fd00::b9"), origSrc, inner)
	for _, h := range []*wire.ILPHeader{&through, &outer, &through} {
		if err := cl.mgr.Send(node.Addr(), h, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	got := cl.await(t)
	if got.hdr.Service != inner.Service || got.hdr.Conn != inner.Conn || !bytes.Equal(got.hdr.Data, inner.Data) || string(got.payload) != "data" {
		t.Fatalf("forwarded %+v %q, want the inner packet", got.hdr, got.payload)
	}
	waitFor(t, func() bool { return node.Counters().RxPackets == 3 })
	c := node.Counters()
	if c.FastPathHits != 1 || c.Forwarded != 1 || node.transitUnwrapped.Load() != 1 || c.NoModuleDrops != 2 {
		t.Fatalf("hits %d forwarded %d unwrapped %d no-module drops %d, want 1 1 1 2",
			c.FastPathHits, c.Forwarded, node.transitUnwrapped.Load(), c.NoModuleDrops)
	}
}

// TestTransitMalformedDrops: transit service data that does not decode is a
// counted drop in the terminus — per packet and in a batch — and never
// reaches a module or panics.
func TestTransitMalformedDrops(t *testing.T) {
	node := newTestSN(t, netsim.NewNetwork(), "fd00::5")
	mod := &keepModule{got: make(chan *Packet, 16)}
	if err := node.Register(mod); err != nil {
		t.Fatal(err)
	}
	good, _ := transitTo(t, node.Addr(), wire.MustAddr("fd00::77"), wire.ILPHeader{Service: wire.SvcEcho, Conn: 1, Data: []byte("abc")})
	edit := func(f func(d []byte) []byte) []byte { return f(append([]byte(nil), good.Data...)) }
	const in = wire.TransitMetaSize
	bad := map[string][]byte{
		"no service data": nil,
		"short meta":      good.Data[:in-1],
		"no inner header": good.Data[:in],
		"truncated inner": good.Data[:len(good.Data)-1],
		"trailing bytes":  edit(func(d []byte) []byte { return append(d, 0) }),
		"oversized inner": edit(func(d []byte) []byte { d[in+12], d[in+13] = 0xFF, 0xFF; return d }),
		"nested transit":  edit(func(d []byte) []byte { copy(d[in:], []byte{0, 0, 0, byte(wire.SvcPeering)}); return d }),
		"inner handoff":   edit(func(d []byte) []byte { copy(d[in:], []byte{0, 0, 0, byte(wire.SvcHandoff)}); return d }),
	}
	prevHop := wire.MustAddr("fd00::b1")
	var batch []pipe.RxPacket
	for name, data := range bad {
		hdr := wire.ILPHeader{Service: wire.SvcPeering, Conn: 5, Data: data}
		before := node.transitMalformed.Load()
		node.handlePacket(node.mgr, prevHop, hdr, nil, []byte("x"))
		if node.transitMalformed.Load() != before+1 {
			t.Errorf("%s: not counted as malformed", name)
		}
		batch = append(batch, pipe.RxPacket{Hdr: hdr, Payload: []byte("x")})
	}
	node.handleBatch(node.mgr, prevHop, batch)
	c := node.Counters()
	if got, want := node.transitMalformed.Load(), uint64(2*len(bad)); got != want || c.RxPackets != want {
		t.Fatalf("malformed %d rx %d, want %d each", got, c.RxPackets, want)
	}
	if c.SlowPathSent != 0 || c.FastPathHits != 0 || len(mod.got) != 0 || node.transitUnwrapped.Load() != 0 {
		t.Fatalf("a malformed transit packet got past the terminus: %+v", c)
	}
}
