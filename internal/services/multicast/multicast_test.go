package multicast

import (
	"sync"
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/sn"
)

type world struct {
	topo  *lab.Topology
	owner cryptutil.SigningKeypair
	setup lab.SNSetup
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
	return &world{topo: topo, owner: owner, setup: setup}
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
	mu  sync.Mutex
	got []string
	ch  chan string
}

func newSink() *sink { return &sink{ch: make(chan string, 64)} }

func (s *sink) handler(group string, payload []byte) {
	s.mu.Lock()
	s.got = append(s.got, string(payload))
	s.mu.Unlock()
	s.ch <- string(payload)
}

func (s *sink) await(t *testing.T, want string) {
	t.Helper()
	deadline := time.After(3 * time.Second)
	for {
		select {
		case got := <-s.ch:
			if got == want {
				return
			}
		case <-deadline:
			t.Fatalf("never received %q", want)
		}
	}
}

func TestMulticastFanOutAcrossEdomains(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "game")
	edA, _ := w.topo.Edomain("ed-a")
	edB, _ := w.topo.Edomain("ed-b")

	sinks := make([]*sink, 3)
	spots := []struct {
		ed  *lab.Edomain
		idx int
	}{{edA, 0}, {edA, 1}, {edB, 1}}
	for i, spot := range spots {
		h, err := w.topo.NewHost(spot.ed, spot.idx)
		if err != nil {
			t.Fatal(err)
		}
		cl := NewClient(h)
		sinks[i] = newSink()
		if err := cl.Join("game", nil, sinks[i].handler); err != nil {
			t.Fatal(err)
		}
	}
	sender, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	scl := NewClient(sender)
	if err := scl.RegisterSender("game"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("game", []byte("tick")); err != nil {
		t.Fatal(err)
	}
	for i, s := range sinks {
		s.await(t, "tick")
		_ = i
	}
}

func TestSenderMembershipNotEchoed(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "g")
	edA, _ := w.topo.Edomain("ed-a")
	h, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(h)
	s := newSink()
	if err := cl.Join("g", nil, s.handler); err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterSender("g"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send("g", []byte("self")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-s.ch:
		t.Fatalf("sender received its own packet %q", got)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestUnregisteredSenderRejected(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "g")
	edA, _ := w.topo.Edomain("ed-a")
	h, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(h)
	if err := cl.Send("g", []byte("nope")); err != nil {
		t.Fatal(err)
	}
	node := edA.SNs[0]
	deadline := time.Now().Add(3 * time.Second)
	for node.Telemetry().Snapshot().Value("sn_module_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unregistered send never rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLeaveStopsDelivery(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "g")
	edA, _ := w.topo.Edomain("ed-a")
	member, _ := w.topo.NewHost(edA, 1)
	mcl := NewClient(member)
	s := newSink()
	if err := mcl.Join("g", nil, s.handler); err != nil {
		t.Fatal(err)
	}
	sender, _ := w.topo.NewHost(edA, 0)
	scl := NewClient(sender)
	if err := scl.RegisterSender("g"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("g", []byte("one")); err != nil {
		t.Fatal(err)
	}
	s.await(t, "one")
	if err := mcl.Leave("g"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("g", []byte("two")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-s.ch:
		t.Fatalf("received %q after leave", got)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestClosedGroupJoinNeedsAuth(t *testing.T) {
	w := newWorld(t)
	if err := w.topo.Global.CreateGroup("vip", w.owner.Public); err != nil {
		t.Fatal(err)
	}
	edA, _ := w.topo.Edomain("ed-a")
	h, _ := w.topo.NewHost(edA, 0)
	cl := NewClient(h)
	s := newSink()
	if err := cl.Join("vip", nil, s.handler); err == nil {
		t.Fatal("unauthorized join succeeded")
	}
	auth := lookup.SignJoinAuthorization(w.owner, "vip", h.Identity().PublicKey())
	if err := cl.Join("vip", auth, s.handler); err != nil {
		t.Fatal(err)
	}
}

// A join that fails on a group the host already belongs to (here: no
// authorization for a closed group) leaves the working membership alone:
// deliveries keep reaching the handler of the earlier join.
func TestFailedRejoinKeepsMembership(t *testing.T) {
	w := newWorld(t)
	if err := w.topo.Global.CreateGroup("vip", w.owner.Public); err != nil {
		t.Fatal(err)
	}
	edA, _ := w.topo.Edomain("ed-a")
	member, _ := w.topo.NewHost(edA, 1)
	mcl := NewClient(member)
	s := newSink()
	auth := lookup.SignJoinAuthorization(w.owner, "vip", member.Identity().PublicKey())
	if err := mcl.Join("vip", auth, s.handler); err != nil {
		t.Fatal(err)
	}
	stray := newSink()
	if err := mcl.Join("vip", nil, stray.handler); err == nil {
		t.Fatal("unauthorized re-join succeeded")
	}
	sender, _ := w.topo.NewHost(edA, 0)
	scl := NewClient(sender)
	if err := scl.RegisterSender("vip"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("vip", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	s.await(t, "still here")
	select {
	case got := <-stray.ch:
		t.Fatalf("the rejected join's handler received %q", got)
	default:
	}
}

// §3.3: the member's SN loses its multicast state (it is replaced at the
// same address by a node with a fresh module, as after a crash and
// restart); the host re-associates and Reestablish restores delivery.
func TestHostDrivenStateReconstruction(t *testing.T) {
	w := newWorld(t)
	w.openGroup(t, "durable")
	edA, _ := w.topo.Edomain("ed-a")
	sender, err := w.topo.NewHost(edA, 0)
	if err != nil {
		t.Fatal(err)
	}
	member, err := w.topo.NewHost(edA, 1)
	if err != nil {
		t.Fatal(err)
	}
	mcl := NewClient(member)
	s := newSink()
	if err := mcl.Join("durable", nil, s.handler); err != nil {
		t.Fatal(err)
	}
	scl := NewClient(sender)
	if err := scl.RegisterSender("durable"); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("durable", []byte("before")); err != nil {
		t.Fatal(err)
	}
	s.await(t, "before")

	if _, err := w.topo.RestartSN(edA, 1, w.setup); err != nil {
		t.Fatal(err)
	}
	if err := member.Reassociate(edA.SNs[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := mcl.Reestablish(); err != nil {
		t.Fatal(err)
	}
	if err := scl.Send("durable", []byte("after")); err != nil {
		t.Fatal(err)
	}
	s.await(t, "after")
}
