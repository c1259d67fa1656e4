package qos

import (
	"net/netip"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/wire"
)

func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain, *Module) {
	t.Helper()
	topo := lab.New()
	mod := New()
	ed, err := topo.AddEdomain("ed-a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.SNs[0].Register(mod); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, mod
}

func TestUnconfiguredPassThrough(t *testing.T) {
	topo, ed, _ := newWorld(t)
	receiver, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	receiver.OnService(wire.SvcQoS, func(msg host.Message) { got <- msg })
	conn, err := sender.NewConn(wire.SvcQoS)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(DestData(receiver.Addr()), []byte("through")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "through" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestConfigureValidation(t *testing.T) {
	topo, ed, _ := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []ConfigArgs{
		{BandwidthBps: 0, Mode: "wfq"},
		{BandwidthBps: 1000, Mode: "nonsense"},
		{BandwidthBps: 1000, Mode: "wfq", Classes: []Class{{Weight: 1}}},
		{BandwidthBps: 1000, Mode: "wfq", Classes: []Class{{Prefix: netip.MustParsePrefix("fd00::/64"), Weight: 0}}},
	}
	for i, args := range bad {
		if _, err := OpConfigure.CallFirstHop(h, args); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	good := ConfigArgs{BandwidthBps: 1e6, Mode: "priority", Classes: []Class{{Prefix: netip.MustParsePrefix("fd00::/16"), Level: 1}}}
	if _, err := OpConfigure.CallFirstHop(h, good); err != nil {
		t.Fatal(err)
	}
}

// The §6.2 household scenario: gaming traffic prioritized over streaming
// across a congested access link. With strict priority and a slow link,
// gaming packets must be delivered ahead of queued bulk packets.
func TestPriorityGamingBeatsBulk(t *testing.T) {
	topo, ed, _ := newWorld(t)
	receiver, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Senders with recognizable prefixes: fd00:aaaa::/32 = gaming,
	// everything else default (lower priority).
	gamer, err := topo.NewHostAt("fd00:aaaa::1")
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := topo.NewHostAt("fd00:bbbb::1")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*host.Host{gamer, bulk} {
		if err := h.Associate(ed.SNs[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// 50 KB/s link: a 1KB packet takes 20ms to serialize.
	cfg := ConfigArgs{
		BandwidthBps: 50_000,
		Mode:         "priority",
		Classes:      []Class{{Prefix: netip.MustParsePrefix("fd00:aaaa::/32"), Level: 0}},
	}
	if _, err := OpConfigure.CallFirstHop(receiver, cfg); err != nil {
		t.Fatal(err)
	}

	type arrival struct {
		src wire.Addr
	}
	got := make(chan arrival, 64)
	receiver.OnService(wire.SvcQoS, func(msg host.Message) {
		// src of delivered packet is the SN; identify class via payload tag
		got <- arrival{src: msg.Src}
	})
	// Use payload tags instead.
	tagged := make(chan string, 64)
	receiver.OnService(wire.SvcQoS, func(msg host.Message) { tagged <- string(msg.Payload[:1]) })

	bigPayload := make([]byte, 1000)
	bigPayload[0] = 'B'
	bulkConn, err := bulk.NewConn(wire.SvcQoS)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the link with bulk.
	for i := 0; i < 20; i++ {
		if err := bulkConn.Send(DestData(receiver.Addr()), bigPayload); err != nil {
			t.Fatal(err)
		}
	}
	// Give the queue a moment to build.
	time.Sleep(50 * time.Millisecond)
	gamePayload := []byte("G")
	gameConn, err := gamer.NewConn(wire.SvcQoS)
	if err != nil {
		t.Fatal(err)
	}
	if err := gameConn.Send(DestData(receiver.Addr()), gamePayload); err != nil {
		t.Fatal(err)
	}

	// The gaming packet must arrive before the bulk backlog drains: among
	// the next few deliveries we see G well before the 20th bulk packet.
	seenG := false
	bulkBefore := 0
	deadline := time.After(10 * time.Second)
	for !seenG {
		select {
		case tag := <-tagged:
			if tag == "G" {
				seenG = true
			} else {
				bulkBefore++
			}
		case <-deadline:
			t.Fatal("gaming packet never arrived")
		}
	}
	if bulkBefore > 10 {
		t.Fatalf("gaming packet arrived after %d bulk packets; priority not applied", bulkBefore)
	}
	_ = got
}

// WFQ: with weights 3:1 and equal offered load, the heavy class receives
// roughly 3x the bytes over the congested interval.
func TestWFQShareUnderCongestion(t *testing.T) {
	topo, ed, _ := newWorld(t)
	receiver, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := topo.NewHostAt("fd00:aaaa::2")
	if err != nil {
		t.Fatal(err)
	}
	light, err := topo.NewHostAt("fd00:bbbb::2")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*host.Host{heavy, light} {
		if err := h.Associate(ed.SNs[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	cfg := ConfigArgs{
		BandwidthBps: 100_000,
		Mode:         "wfq",
		Classes: []Class{
			{Prefix: netip.MustParsePrefix("fd00:aaaa::/32"), Weight: 3},
			{Prefix: netip.MustParsePrefix("fd00:bbbb::/32"), Weight: 1},
		},
	}
	if _, err := OpConfigure.CallFirstHop(receiver, cfg); err != nil {
		t.Fatal(err)
	}
	counts := make(chan byte, 256)
	receiver.OnService(wire.SvcQoS, func(msg host.Message) { counts <- msg.Payload[0] })

	hConn, _ := heavy.NewConn(wire.SvcQoS)
	lConn, _ := light.NewConn(wire.SvcQoS)
	payloadH := make([]byte, 500)
	payloadH[0] = 'H'
	payloadL := make([]byte, 500)
	payloadL[0] = 'L'
	for i := 0; i < 40; i++ {
		if err := hConn.Send(DestData(receiver.Addr()), payloadH); err != nil {
			t.Fatal(err)
		}
		if err := lConn.Send(DestData(receiver.Addr()), payloadL); err != nil {
			t.Fatal(err)
		}
	}
	// Observe the first 24 deliveries of the congested period.
	h, l := 0, 0
	deadline := time.After(10 * time.Second)
	for h+l < 24 {
		select {
		case b := <-counts:
			if b == 'H' {
				h++
			} else {
				l++
			}
		case <-deadline:
			t.Fatalf("timeout with %d H, %d L", h, l)
		}
	}
	if h < 2*l {
		t.Fatalf("WFQ share violated: %d heavy vs %d light (want ~3:1)", h, l)
	}
}

func TestClearRemovesPolicy(t *testing.T) {
	topo, ed, mod := newWorld(t)
	receiver, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigArgs{BandwidthBps: 1000, Mode: "wfq"}
	if _, err := OpConfigure.CallFirstHop(receiver, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := OpClear.CallFirstHop(receiver, control.None{}); err != nil {
		t.Fatal(err)
	}
	if mod.QueueLen(receiver.Addr()) != 0 {
		t.Fatal("state left after clear")
	}
}
