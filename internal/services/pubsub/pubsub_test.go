package pubsub

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/sn"
)

// testWorld is a two-edomain deployment with pub/sub on every SN.
type testWorld struct {
	topo  *lab.Topology
	owner cryptutil.SigningKeypair
	setup lab.SNSetup
}

func newWorld(t *testing.T, snsPerEdomain int) *testWorld {
	t.Helper()
	topo := lab.New()
	setup := func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(New(ed.Core, topo.Fabric, topo.Global))
	}
	if _, err := topo.AddEdomain("ed-a", snsPerEdomain, setup); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.AddEdomain("ed-b", snsPerEdomain, setup); err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return &testWorld{topo: topo, owner: owner, setup: setup}
}

func (w *testWorld) openTopic(t *testing.T, topic string) {
	t.Helper()
	if err := w.topo.Global.CreateGroup(lookup.GroupID(topic), w.owner.Public); err != nil {
		t.Fatal(err)
	}
	if err := w.topo.Global.PostOpenStatement(lookup.GroupID(topic), lookup.SignOpenStatement(w.owner, lookup.GroupID(topic))); err != nil {
		t.Fatal(err)
	}
}

type collector struct {
	mu   sync.Mutex
	msgs []string
	ch   chan string
}

func newCollector() *collector {
	return &collector{ch: make(chan string, 256)}
}

func (c *collector) handler(topic string, msg []byte) {
	c.mu.Lock()
	c.msgs = append(c.msgs, string(msg))
	c.mu.Unlock()
	c.ch <- string(msg)
}

func (c *collector) await(t *testing.T, want string) {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case got := <-c.ch:
			if got == want {
				return
			}
		case <-deadline:
			t.Fatalf("never received %q (have %v)", want, c.msgs)
		}
	}
}

func TestPublishSameSN(t *testing.T) {
	w := newWorld(t, 1)
	w.openTopic(t, "news")
	edA, _ := w.topo.Edomain("ed-a")
	pub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	subClient, _ := NewClient(sub)
	col := newCollector()
	if err := subClient.Subscribe("news", nil, false, col.handler); err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	if err := pubClient.RegisterSender("news"); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("news", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	col.await(t, "hello")
}

func TestPublishRequiresSenderRegistration(t *testing.T) {
	w := newWorld(t, 1)
	w.openTopic(t, "news")
	edA, _ := w.topo.Edomain("ed-a")
	pub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	// Publish without registering: module drops (error counted at SN).
	if err := pubClient.Publish("news", []byte("rogue")); err != nil {
		t.Fatal(err) // send succeeds; rejection is at the SN
	}
	node := edA.SNs[0]
	deadline := time.Now().Add(3 * time.Second)
	for node.Telemetry().Snapshot().Value("sn_module_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unregistered publish never rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClosedTopicRequiresAuth(t *testing.T) {
	w := newWorld(t, 1)
	if err := w.topo.Global.CreateGroup("vip", w.owner.Public); err != nil {
		t.Fatal(err)
	}
	edA, _ := w.topo.Edomain("ed-a")
	sub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	subClient, _ := NewClient(sub)
	col := newCollector()
	// Without authorization: rejected.
	if err := subClient.Subscribe("vip", nil, false, col.handler); err == nil {
		t.Fatal("unauthorized subscribe succeeded")
	}
	// With owner-signed authorization for this host's identity: accepted.
	auth := lookup.SignJoinAuthorization(w.owner, "vip", sub.Identity().PublicKey())
	if err := subClient.Subscribe("vip", auth, false, col.handler); err != nil {
		t.Fatal(err)
	}
	// Authorization for a different key is rejected.
	other, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	otherClient, _ := NewClient(other)
	if err := otherClient.Subscribe("vip", auth, false, col.handler); err == nil {
		t.Fatal("subscribe with foreign authorization succeeded")
	}
}

func TestPublishCrossSNSameEdomain(t *testing.T) {
	w := newWorld(t, 2)
	w.openTopic(t, "t")
	edA, _ := w.topo.Edomain("ed-a")
	pub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := w.topo.NewHost(edA, 1) // different SN
	if err != nil {
		t.Fatal(err)
	}
	subClient, _ := NewClient(sub)
	col := newCollector()
	if err := subClient.Subscribe("t", nil, false, col.handler); err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	if err := pubClient.RegisterSender("t"); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("t", []byte("across SNs")); err != nil {
		t.Fatal(err)
	}
	col.await(t, "across SNs")
}

func TestPublishCrossEdomain(t *testing.T) {
	w := newWorld(t, 2)
	w.openTopic(t, "world")
	edA, _ := w.topo.Edomain("ed-a")
	edB, _ := w.topo.Edomain("ed-b")
	pub, err := w.topo.NewHost(edA, 1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := w.topo.NewHost(edB, 1) // non-gateway SN in remote edomain
	if err != nil {
		t.Fatal(err)
	}
	subClient, _ := NewClient(sub)
	col := newCollector()
	if err := subClient.Subscribe("world", nil, false, col.handler); err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	if err := pubClient.RegisterSender("world"); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("world", []byte("inter-edomain")); err != nil {
		t.Fatal(err)
	}
	col.await(t, "inter-edomain")
}

func TestMultipleSubscribersAllReceive(t *testing.T) {
	w := newWorld(t, 2)
	w.openTopic(t, "fan")
	edA, _ := w.topo.Edomain("ed-a")
	edB, _ := w.topo.Edomain("ed-b")

	var cols []*collector
	for i, spot := range []struct {
		ed  *lab.Edomain
		idx int
	}{{edA, 0}, {edA, 1}, {edB, 0}, {edB, 1}} {
		h, err := w.topo.NewHost(spot.ed, spot.idx)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		cl, _ := NewClient(h)
		col := newCollector()
		if err := cl.Subscribe("fan", nil, false, col.handler); err != nil {
			t.Fatal(err)
		}
		cols = append(cols, col)
	}
	pub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	if err := pubClient.RegisterSender("fan"); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("fan", []byte("to-all")); err != nil {
		t.Fatal(err)
	}
	for i, col := range cols {
		func(i int) {
			defer func() {
				if t.Failed() {
					t.Fatalf("subscriber %d missing message", i)
				}
			}()
			col.await(t, "to-all")
		}(i)
	}
}

func TestReplayForLateSubscriber(t *testing.T) {
	w := newWorld(t, 1)
	w.openTopic(t, "log")
	edA, _ := w.topo.Edomain("ed-a")
	pub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	if err := pubClient.RegisterSender("log"); err != nil {
		t.Fatal(err)
	}
	// Publish before anyone subscribes; messages are retained at the SN.
	for i := 0; i < 3; i++ {
		if err := pubClient.Publish("log", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Give the SN time to process the publishes.
	time.Sleep(100 * time.Millisecond)
	late, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	lateClient, _ := NewClient(late)
	col := newCollector()
	if err := lateClient.Subscribe("log", nil, true, col.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		col.await(t, fmt.Sprintf("m%d", i))
	}
}

// §3.3: stateful-service resiliency via host-driven state reconstruction.
// The subscriber's SN "fails" (its pub/sub state is lost when we stand up
// a fresh SN); the host re-associates and Reestablish() restores flow.
func TestHostDrivenStateReconstruction(t *testing.T) {
	w := newWorld(t, 2)
	w.openTopic(t, "durable")
	edA, _ := w.topo.Edomain("ed-a")
	pub, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := w.topo.NewHost(edA, 1)
	if err != nil {
		t.Fatal(err)
	}
	subClient, _ := NewClient(sub)
	col := newCollector()
	if err := subClient.Subscribe("durable", nil, false, col.handler); err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	if err := pubClient.RegisterSender("durable"); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("durable", []byte("before")); err != nil {
		t.Fatal(err)
	}
	col.await(t, "before")

	// The subscriber's SN (index 1) loses its soft state: it is replaced
	// at the same address by a node with a fresh pub/sub module, as after
	// a crash and restart. Then the host reconstructs.
	if _, err := w.topo.RestartSN(edA, 1, w.setup); err != nil {
		t.Fatal(err)
	}
	if err := sub.Reassociate(edA.SNs[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := subClient.Reestablish(); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("durable", []byte("after")); err != nil {
		t.Fatal(err)
	}
	col.await(t, "after")
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	w := newWorld(t, 1)
	w.openTopic(t, "quiet")
	edA, _ := w.topo.Edomain("ed-a")
	pub, _ := w.topo.NewHost(edA, 0)
	sub, _ := w.topo.NewHost(edA, 0)
	subClient, _ := NewClient(sub)
	col := newCollector()
	if err := subClient.Subscribe("quiet", nil, false, col.handler); err != nil {
		t.Fatal(err)
	}
	pubClient, _ := NewClient(pub)
	if err := pubClient.RegisterSender("quiet"); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("quiet", []byte("one")); err != nil {
		t.Fatal(err)
	}
	col.await(t, "one")
	if err := subClient.Unsubscribe("quiet"); err != nil {
		t.Fatal(err)
	}
	if err := pubClient.Publish("quiet", []byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-col.ch:
		t.Fatalf("received %q after unsubscribe", got)
	case <-time.After(150 * time.Millisecond):
	}
}
