package mixnet

import (
	"fmt"
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// world: one edomain with three mix SNs.
func newWorld(t *testing.T, opts ...Option) (*lab.Topology, *lab.Edomain, *KeyDirectory, []*Module) {
	t.Helper()
	topo := lab.New()
	dir := NewKeyDirectory()
	ed, err := topo.AddEdomain("ed-a", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mods []*Module
	for _, node := range ed.SNs {
		m, err := New(dir, node.Addr(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Register(m); err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, dir, mods
}

func route(ed *lab.Edomain) []wire.Addr {
	return []wire.Addr{ed.SNs[0].Addr(), ed.SNs[1].Addr(), ed.SNs[2].Addr()}
}

func TestOnionTraversesThreeMixes(t *testing.T) {
	topo, ed, dir, _ := newWorld(t, WithBatchSize(1))
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := topo.NewHost(ed, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 1)
	receiver.OnService(wire.SvcMixnet, func(msg host.Message) { got <- msg.Clone() })

	if err := Send(sender, dir, route(ed), receiver.Addr(), []byte("anonymous")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "anonymous" {
			t.Fatalf("payload %q", msg.Payload)
		}
		// Receiver sees the exit mix, not the sender.
		if msg.Src != ed.SNs[2].Addr() {
			t.Fatalf("receiver saw %s, want exit mix %s", msg.Src, ed.SNs[2].Addr())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
}

func TestBatchHoldsUntilFullThenShuffles(t *testing.T) {
	topo, ed, dir, mods := newWorld(t, WithBatchSize(3), WithFlushInterval(time.Hour), WithSeed(7))
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 8)
	receiver.OnService(wire.SvcMixnet, func(msg host.Message) { got <- string(msg.Payload) })

	// Single-hop route through mix 0 only: batching observable directly.
	oneHop := []wire.Addr{ed.SNs[0].Addr()}
	for i := 0; i < 2; i++ {
		if err := Send(sender, dir, oneHop, receiver.Addr(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two packets in a batch of three: nothing flushes.
	select {
	case p := <-got:
		t.Fatalf("premature flush delivered %q", p)
	case <-time.After(150 * time.Millisecond):
	}
	if n := mods[0].PendingBatch(); n != 2 {
		t.Fatalf("pending batch = %d, want 2", n)
	}
	// Third packet fills the batch; all three flush.
	if err := Send(sender, dir, oneHop, receiver.Addr(), []byte("m2")); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		select {
		case p := <-got:
			seen[p] = true
		case <-time.After(3 * time.Second):
			t.Fatalf("only %d/3 delivered after flush", i)
		}
	}
	for _, want := range []string{"m0", "m1", "m2"} {
		if !seen[want] {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestTimerFlushesPartialBatch(t *testing.T) {
	topo, ed, dir, _ := newWorld(t, WithBatchSize(100), WithFlushInterval(30*time.Millisecond))
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	receiver.OnService(wire.SvcMixnet, func(msg host.Message) { got <- string(msg.Payload) })
	if err := Send(sender, dir, []wire.Addr{ed.SNs[0].Addr()}, receiver.Addr(), []byte("lonely")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != "lonely" {
			t.Fatalf("payload %q", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timer flush never happened")
	}
}

// Middle mix sees only its neighbors: the previous mix as source, never
// the sender host.
func TestMiddleMixNeverSeesSender(t *testing.T) {
	topo, ed, dir, _ := newWorld(t, WithBatchSize(1))
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := topo.NewHost(ed, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	receiver.OnService(wire.SvcMixnet, func(host.Message) { done <- struct{}{} })
	if err := Send(sender, dir, route(ed), receiver.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
	// The middle SN's pipe peers must not include the sender host.
	for _, p := range ed.SNs[1].Pipes().Peers() {
		if p.Addr == sender.Addr() {
			t.Fatal("middle mix peered directly with the sender")
		}
	}
}

func TestBuildOnionValidation(t *testing.T) {
	dir := NewKeyDirectory()
	if _, err := BuildOnion(dir, nil, wire.MustAddr("fd00::1"), nil); err != ErrEmptyRoute {
		t.Fatalf("err = %v, want ErrEmptyRoute", err)
	}
	if _, err := BuildOnion(dir, []wire.Addr{wire.MustAddr("fd00::9")}, wire.MustAddr("fd00::1"), nil); err == nil {
		t.Fatal("onion built without published keys")
	}
}

// Mixnet inside enclaves (§6.2 pairs privacy services with enclaves).
func TestMixnetRunsInEnclave(t *testing.T) {
	topo := lab.New()
	dir := NewKeyDirectory()
	ed, err := topo.AddEdomain("ed-a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(dir, ed.SNs[0].Addr(), WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.SNs[0].Register(m, sn.WithEnclave()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	receiver.OnService(wire.SvcMixnet, func(msg host.Message) { got <- string(msg.Payload) })
	if err := Send(sender, dir, []wire.Addr{ed.SNs[0].Addr()}, receiver.Addr(), []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != "sealed" {
			t.Fatalf("payload %q", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timeout")
	}
	encl, ok := ed.SNs[0].ModuleEnclave(wire.SvcMixnet)
	if !ok || encl.Crossings() == 0 {
		t.Fatal("enclave not engaged")
	}
}
