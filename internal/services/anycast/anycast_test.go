package anycast

import (
	"sync"
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

type world struct {
	topo  *lab.Topology
	owner cryptutil.SigningKeypair
}

func newWorld(t *testing.T) *world {
	t.Helper()
	topo := lab.New()
	setup := func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(New(ed.Core, topo.Fabric, topo.Global))
	}
	for _, id := range []lookup.EdomainID{"ed-a", "ed-b"} {
		if _, err := topo.AddEdomain(id, 2, setup); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return &world{topo: topo, owner: owner}
}

func (w *world) openGroup(t *testing.T, g string) {
	t.Helper()
	if err := w.topo.Global.CreateGroup(lookup.GroupID(g), w.owner.Public); err != nil {
		t.Fatal(err)
	}
	if err := w.topo.Global.PostOpenStatement(lookup.GroupID(g), lookup.SignOpenStatement(w.owner, lookup.GroupID(g))); err != nil {
		t.Fatal(err)
	}
}

type sink struct {
	mu sync.Mutex
	n  int
	ch chan string
}

func newSink() *sink { return &sink{ch: make(chan string, 64)} }

func (s *sink) handler(group string, payload []byte) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- string(payload)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func TestAnycastDeliversToExactlyOne(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "resolver")
	edA, _ := w.topo.Edomain("ed-a")
	edB, _ := w.topo.Edomain("ed-b")

	// Three members spread around.
	sinks := make([]*sink, 3)
	for i, spot := range []struct {
		ed  *lab.Edomain
		idx int
	}{{edA, 0}, {edA, 1}, {edB, 0}} {
		h, err := w.topo.NewHost(spot.ed, spot.idx)
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(h)
		sinks[i] = newSink()
		if err := cl.Join("resolver", nil, sinks[i].handler); err != nil {
			t.Fatal(err)
		}
	}
	sender, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	scl := NewClient(sender)
	if err := scl.RegisterSender("resolver"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("resolver", []byte("query")); err != nil {
		t.Fatal(err)
	}
	// Exactly one member receives it.
	received := 0
	deadline := time.After(3 * time.Second)
	select {
	case <-sinks[0].ch:
		received++
	case <-sinks[1].ch:
		received++
	case <-sinks[2].ch:
		received++
	case <-deadline:
		t.Fatal("no member received the anycast packet")
	}
	time.Sleep(150 * time.Millisecond)
	total := sinks[0].count() + sinks[1].count() + sinks[2].count()
	if total != 1 {
		t.Fatalf("anycast delivered to %d members, want exactly 1", total)
	}
	// The local member (same SN as the sender) should have won.
	if sinks[0].count() != 1 {
		t.Fatalf("nearest member did not win (counts: %d %d %d)",
			sinks[0].count(), sinks[1].count(), sinks[2].count())
	}
}

func TestAnycastFallsBackToEdomainThenRemote(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "g")
	edA, _ := w.topo.Edomain("ed-a")
	edB, _ := w.topo.Edomain("ed-b")

	// Only remote members exist: one in ed-b.
	remote, err := w.topo.NewHost(edB, 1)
	if err != nil {
		t.Fatal(err)
	}
	rcl := NewClient(remote)
	rs := newSink()
	if err := rcl.Join("g", nil, rs.handler); err != nil {
		t.Fatal(err)
	}
	sender, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	scl := NewClient(sender)
	if err := scl.RegisterSender("g"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("g", []byte("far")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-rs.ch:
		if got != "far" {
			t.Fatalf("payload %q", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("remote member never received anycast")
	}
}

func TestAnycastNoMembersErrors(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "empty")
	edA, _ := w.topo.Edomain("ed-a")
	sender, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	scl := NewClient(sender)
	if err := scl.RegisterSender("empty"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("empty", []byte("void")); err != nil {
		t.Fatal(err)
	}
	node := edA.SNs[0]
	deadline := time.Now().Add(3 * time.Second)
	for node.Telemetry().Snapshot().Value("sn_module_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("send to empty group never errored")
		}
		time.Sleep(time.Millisecond)
	}
}

// Anycast affinity: once routed, the flow's packets ride the decision
// cache to the same member.
func TestAnycastFlowAffinityViaCache(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "sticky")
	edA, _ := w.topo.Edomain("ed-a")
	member, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	mcl := NewClient(member)
	s := newSink()
	if err := mcl.Join("sticky", nil, s.handler); err != nil {
		t.Fatal(err)
	}
	sender, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	scl := NewClient(sender)
	if err := scl.RegisterSender("sticky"); err != nil {
		t.Fatal(err)
	}
	// First packet takes the slow path and installs the affinity rule
	// (rules are installed before the forward is sent, so once the member
	// sees the packet the rule is live).
	if err := scl.Send("sticky", []byte{0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.count() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first packet never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 5; i++ {
		if err := scl.Send("sticky", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(3 * time.Second)
	for s.count() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d/5", s.count())
		}
		time.Sleep(time.Millisecond)
	}
	// Packets 2..5 must have hit the fast path.
	c := edA.SNs[0].Telemetry().Snapshot()
	if c.Value("sn_fastpath_hits_total") < 4 {
		t.Fatalf("FastPathHits = %v, want >= 4 (affinity not cached)", c.Value("sn_fastpath_hits_total"))
	}
	_ = wire.SvcAnycast
}
