package ztna

import (
	"strings"
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/sn"
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

func setPolicy(t *testing.T, topo *lab.Topology, ed *lab.Edomain, p AppPolicy) *host.Host {
	t.Helper()
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpSetPolicy.CallFirstHop(operator, p); err != nil {
		t.Fatal(err)
	}
	return operator
}

// bigPosture makes a posture document that needs several fragments —
// exercising App B.2's multi-packet connection establishment.
func bigPosture(user string, osVersion int) Posture {
	return Posture{
		User:      user,
		DeviceID:  "device-123",
		OSVersion: osVersion,
		Attributes: map[string]string{
			"inventory": strings.Repeat("package-entry;", 200), // ~2.8 KB
		},
	}
}

func TestMultiPacketEstablishmentAdmits(t *testing.T) {
	topo, ed, mod := newWorld(t)
	backend, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	setPolicy(t, topo, ed, AppPolicy{App: "erp", Backend: backend.Addr(), MinOSVersion: 10})
	got := make(chan host.Message, 8)
	backend.OnService(wire.SvcZTNA, func(msg host.Message) { got <- msg })

	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Connect(client, "erp", bigPosture("alice", 14))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The completing posture packet is forwarded to the backend.
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("establishment never reached backend")
	}
	if mod.EstablishedFlows() != 1 {
		t.Fatalf("established flows = %d", mod.EstablishedFlows())
	}
	// Steady-state data flows on the cached rule.
	if err := conn.Send(DataHeader("erp"), []byte("query")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "query" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("data packet never arrived")
	}
	if ed.SNs[0].Counters().FastPathHits == 0 {
		t.Fatal("established flow not served from decision cache")
	}
}

func TestOldOSVersionDenied(t *testing.T) {
	topo, ed, mod := newWorld(t)
	backend, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	setPolicy(t, topo, ed, AppPolicy{App: "erp", Backend: backend.Addr(), MinOSVersion: 12})
	got := make(chan host.Message, 8)
	backend.OnService(wire.SvcZTNA, func(msg host.Message) { got <- msg })
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Connect(client, "erp", bigPosture("alice", 8)) // too old
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-got:
		t.Fatal("denied client reached backend")
	case <-time.After(200 * time.Millisecond):
	}
	if mod.EstablishedFlows() != 0 {
		t.Fatal("denied flow recorded as established")
	}
	// Follow-up data dies on the fast path.
	for i := 0; i < 3; i++ {
		if err := conn.Send(DataHeader("erp"), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Counters().RuleDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("denied flow not dropped on fast path")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUserAllowlist(t *testing.T) {
	topo, ed, _ := newWorld(t)
	backend, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	setPolicy(t, topo, ed, AppPolicy{
		App: "hr", Backend: backend.Addr(), MinOSVersion: 1,
		AllowedUsers: []string{"alice"},
	})
	got := make(chan host.Message, 8)
	backend.OnService(wire.SvcZTNA, func(msg host.Message) { got <- msg })
	mallory, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Connect(mallory, "hr", bigPosture("mallory", 20))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-got:
		t.Fatal("disallowed user reached backend")
	case <-time.After(200 * time.Millisecond):
	}
}

// App B.2's core requirement: after the decision-cache entry is evicted,
// the module recomputes the forwarding decision from its internal state —
// the client does NOT resend its posture.
func TestSurvivesCacheEviction(t *testing.T) {
	topo, ed, mod := newWorld(t)
	backend, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	setPolicy(t, topo, ed, AppPolicy{App: "erp", Backend: backend.Addr(), MinOSVersion: 1})
	got := make(chan host.Message, 8)
	backend.OnService(wire.SvcZTNA, func(msg host.Message) { got <- msg })
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Connect(client, "erp", bigPosture("alice", 9))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("establishment failed")
	}
	// Simulate arbitrary eviction (App B.1 allows it at any time).
	key := wire.FlowKey{Src: client.Addr(), Service: wire.SvcZTNA, Conn: conn.ID()}
	ed.SNs[0].Cache().Invalidate(key)

	if err := conn.Send(DataHeader("erp"), []byte("after-eviction")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "after-eviction" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("flow did not survive cache eviction")
	}
	if mod.EstablishedFlows() != 1 {
		t.Fatal("internal decision state lost")
	}
}

func TestDataBeforeEstablishmentRejected(t *testing.T) {
	topo, ed, _ := newWorld(t)
	backend, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	setPolicy(t, topo, ed, AppPolicy{App: "erp", Backend: backend.Addr()})
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.NewConn(wire.SvcZTNA)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(DataHeader("erp"), []byte("sneak")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Counters().ModuleErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pre-establishment data not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUnknownAppRejected(t *testing.T) {
	topo, ed, _ := newWorld(t)
	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Connect(client, "ghost", bigPosture("alice", 20))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Counters().ModuleErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown app not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

// App B.2's hit-count API end to end: an established flow that goes idle
// is garbage-collected — its cache rule is invalidated and its internal
// decision dropped, so the next packet must re-authenticate.
func TestIdleFlowExpiresViaHitCounts(t *testing.T) {
	topo := lab.New()
	t.Cleanup(topo.Close)
	mod := New(WithIdleTimeout(150 * time.Millisecond))
	ed, err := topo.AddEdomain("ed-a", 1, func(node *sn.SN, e *lab.Edomain) error {
		return node.Register(mod)
	})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	operator, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpSetPolicy.CallFirstHop(operator, AppPolicy{
		App: "erp", Backend: backend.Addr(), MinOSVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 8)
	backend.OnService(wire.SvcZTNA, func(msg host.Message) { got <- msg })

	client, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Connect(client, "erp", bigPosture("alice", 9))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("establishment failed")
	}
	if mod.EstablishedFlows() != 1 {
		t.Fatal("flow not established")
	}
	// Go idle past the timeout; the collector reaps the flow.
	deadline := time.Now().Add(3 * time.Second)
	for mod.EstablishedFlows() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle flow never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Data on the expired flow is rejected until re-authentication.
	if err := conn.Send(DataHeader("erp"), []byte("stale")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for ed.SNs[0].Counters().ModuleErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired flow's data not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}
