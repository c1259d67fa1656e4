package msgqueue

import (
	"fmt"
	"testing"
	"time"

	"interedge/internal/control"
	"interedge/internal/lab"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain, []*Module) {
	t.Helper()
	topo := lab.New()
	var mods []*Module
	ed, err := topo.AddEdomain("ed-a", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range ed.SNs {
		m := New()
		if err := node.Register(m); err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, mods
}

func TestProduceFetchCommit(t *testing.T) {
	topo, ed, _ := newWorld(t)
	producer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewClient(producer)
	if err := pc.CreateTopic("orders", nil, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := pc.Produce("orders", []byte(fmt.Sprintf("order-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	consumer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc := NewClient(consumer)
	home := ed.SNs[0].Addr()
	waitDepth(t, topo, ed, 0, "orders", 5)

	msgs, next, err := cc.Fetch(home, "orders", "g1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || next != 3 {
		t.Fatalf("fetch got %d msgs next=%d", len(msgs), next)
	}
	if string(msgs[0].Payload) != "order-0" || msgs[0].Offset != 0 {
		t.Fatalf("msg 0 = %+v", msgs[0])
	}
	// Without commit, the same messages come again.
	again, _, err := cc.Fetch(home, "orders", "g1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 3 || again[0].Offset != 0 {
		t.Fatalf("refetch %+v", again)
	}
	// Commit and resume.
	if err := cc.Commit(home, "orders", "g1", next); err != nil {
		t.Fatal(err)
	}
	rest, next2, err := cc.Fetch(home, "orders", "g1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0].Offset != 3 || next2 != 5 {
		t.Fatalf("rest %+v next=%d", rest, next2)
	}
}

func waitDepth(t *testing.T, topo *lab.Topology, ed *lab.Edomain, snIdx int, topic string, want int) {
	t.Helper()
	mod, _ := ed.SNs[snIdx].Module(wire.SvcMsgQueue)
	m := mod.(*Module)
	deadline := time.Now().Add(3 * time.Second)
	for m.Depth(topic) < want {
		if time.Now().After(deadline) {
			t.Fatalf("topic %q depth %d, want %d", topic, m.Depth(topic), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConsumerGroupsIndependent(t *testing.T) {
	topo, ed, _ := newWorld(t)
	producer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewClient(producer)
	if err := pc.CreateTopic("t", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := pc.Produce("t", []byte("m")); err != nil {
		t.Fatal(err)
	}
	waitDepth(t, topo, ed, 0, "t", 1)
	home := ed.SNs[0].Addr()
	consumer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc := NewClient(consumer)
	if err := cc.Commit(home, "t", "g1", 1); err != nil {
		t.Fatal(err)
	}
	// g1 exhausted, g2 still sees the message.
	m1, _, _ := cc.Fetch(home, "t", "g1", 10)
	m2, _, _ := cc.Fetch(home, "t", "g2", 10)
	if len(m1) != 0 || len(m2) != 1 {
		t.Fatalf("g1=%d g2=%d", len(m1), len(m2))
	}
}

func TestMirrorReplication(t *testing.T) {
	topo, ed, mods := newWorld(t)
	producer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewClient(producer)
	mirror := ed.SNs[1].Addr()
	if err := pc.CreateTopic("geo", []wire.Addr{mirror}, 0); err != nil {
		t.Fatal(err)
	}
	// Give the mirror-create control packet a moment.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := pc.Produce("geo", []byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Mirror converges.
	deadline := time.Now().Add(3 * time.Second)
	for mods[1].Depth("geo") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("mirror depth %d, want 3", mods[1].Depth("geo"))
		}
		time.Sleep(time.Millisecond)
	}
	// A consumer near the mirror fetches identical offsets from it.
	consumer, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	cc := NewClient(consumer)
	msgs, _, err := cc.Fetch(mirror, "geo", "g", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || msgs[2].Offset != 2 || string(msgs[2].Payload) != "e2" {
		t.Fatalf("mirror fetch %+v", msgs)
	}
}

func TestRetentionDropsOldest(t *testing.T) {
	topo, ed, mods := newWorld(t)
	producer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewClient(producer)
	if err := pc.CreateTopic("small", nil, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := pc.Produce("small", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if mods[0].Depth("small") == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("depth %d", mods[0].Depth("small"))
		}
		time.Sleep(time.Millisecond)
	}
	consumer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc := NewClient(consumer)
	msgs, _, err := cc.Fetch(ed.SNs[0].Addr(), "small", "g", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets 2..4 retained; the consumer's cursor jumps over the dropped
	// prefix.
	if len(msgs) != 3 || msgs[0].Offset != 2 {
		t.Fatalf("msgs %+v", msgs)
	}
}

func TestErrors(t *testing.T) {
	topo, ed, _ := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(h)
	if _, _, err := c.Fetch(ed.SNs[0].Addr(), "ghost", "g", 1); err == nil {
		t.Fatal("fetch from unknown topic succeeded")
	}
	if err := c.CreateTopic("dup", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("dup", nil, 0); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	// Produce to a topic homed elsewhere errors at the module.
	other, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	oc := NewClient(other)
	if err := oc.Produce("dup", []byte("x")); err != nil {
		t.Fatal(err)
	}
	node := ed.SNs[1]
	deadline := time.Now().Add(3 * time.Second)
	for node.Telemetry().Snapshot().Value("sn_module_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("produce at non-home not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

// A create naming a mirror with no address is refused with an error, and
// the SN that received it keeps serving. (Args that do not decode at all,
// such as a mirror that is no address, are refused by the SN's one control
// dispatch; see sn.TestMalformedControlArgsRefused.)
func TestMalformedControlCreate(t *testing.T) {
	topo, ed, _ := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpCreate.CallFirstHop(h, CreateArgs{Topic: "t", Mirrors: []wire.Addr{{}}}); err == nil {
		t.Fatal("create with a mirror of no address succeeded")
	}
	if _, err := sn.OpHealth.CallFirstHop(h, control.None{}); err != nil {
		t.Fatalf("SN stopped answering after a malformed create: %v", err)
	}
}

// TestMirroredTopicLeavesSNsIdle: the home SN sends create_mirror to the
// mirror SN, which answers it. The home SN must drop that answer, not
// answer it in turn: two SNs answering each other's replies bounce them
// forever, and both would keep receiving packets with nothing going on.
func TestMirroredTopicLeavesSNsIdle(t *testing.T) {
	topo, ed, _ := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewClient(h).CreateTopic("geo", []wire.Addr{ed.SNs[1].Addr()}, 0); err != nil {
		t.Fatal(err)
	}
	// The mirror exists once a fetch at the mirror SN finds the topic.
	near, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(near)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, _, err := c.Fetch(ed.SNs[1].Addr(), "geo", "g", 1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mirror never created")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := []float64{ed.SNs[0].Telemetry().Snapshot().Value("sn_rx_packets_total"), ed.SNs[1].Telemetry().Snapshot().Value("sn_rx_packets_total")}
	time.Sleep(500 * time.Millisecond)
	for i, node := range ed.SNs {
		if rx := node.Telemetry().Snapshot().Value("sn_rx_packets_total"); rx-before[i] > 2 {
			t.Errorf("SN %v received %v packets over an idle 500 ms", i, rx-before[i])
		}
	}
	dropped := ed.SNs[0].Telemetry().Snapshot().Value(`sn_control_ops_total{service="unknown",op="unknown",result="dropped"}`)
	if dropped != 1 {
		t.Errorf("home SN dropped %v control packets, want the mirror's one reply", dropped)
	}
}
