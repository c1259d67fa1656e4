package vpn

import (
	"testing"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/wire"
)

func newWorld(t *testing.T) (*lab.Topology, *lab.Edomain) {
	t.Helper()
	topo := lab.New()
	ed, err := topo.AddEdomain("ed-a", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.SNs[0].Register(New()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed
}

func TestAuthenticatedTrafficPasses(t *testing.T) {
	topo, ed := newWorld(t)
	customer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("shared-secret")
	if err := Register(customer, "corp.example", secret); err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 8)
	customer.OnService(wire.SvcVPN, func(msg host.Message) { got <- msg.Clone() })

	outside, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(outside, ed.SNs[0].Addr(), "corp.example", secret)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("authenticated first packet never arrived")
	}
	// Follow-up packets ride the cached admission (no proof needed).
	if err := conn.Send(HeaderData("corp.example", nil), []byte("more")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Payload) != "more" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cached flow packet never arrived")
	}
	if c := ed.SNs[0].Telemetry().Snapshot(); c.Value("sn_fastpath_hits_total") == 0 {
		t.Fatal("admitted flow not served from cache")
	}
}

func TestWrongSecretDropped(t *testing.T) {
	topo, ed := newWorld(t)
	customer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(customer, "corp", []byte("right")); err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 8)
	customer.OnService(wire.SvcVPN, func(msg host.Message) { got <- msg.Clone() })
	attacker, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(attacker, ed.SNs[0].Addr(), "corp", []byte("wrong"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-got:
		t.Fatal("unauthenticated packet delivered")
	case <-time.After(200 * time.Millisecond):
	}
	// Subsequent packets on the same flow die on the fast path.
	for i := 0; i < 3; i++ {
		if err := conn.Send(HeaderData("corp", nil), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Telemetry().Snapshot().Value("sn_rule_drops_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fast-path drops for rejected flow")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUnknownNameRejected(t *testing.T) {
	topo, ed := newWorld(t)
	outside, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(outside, ed.SNs[0].Addr(), "ghost", []byte("s")); err != nil {
		t.Fatal(err) // Dial itself succeeds; rejection is at the SN
	}
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Telemetry().Snapshot().Value("sn_module_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unknown name never rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUnregisterRemoves(t *testing.T) {
	topo, ed := newWorld(t)
	customer, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("s")
	if err := Register(customer, "corp", secret); err != nil {
		t.Fatal(err)
	}
	if _, err := OpUnregister.CallFirstHop(customer, RegisterArgs{Name: "corp"}); err != nil {
		t.Fatal(err)
	}
	outside, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(outside, ed.SNs[0].Addr(), "corp", secret); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for ed.SNs[0].Telemetry().Snapshot().Value("sn_module_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dial after unregister not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegisterValidation(t *testing.T) {
	topo, ed := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(h, "", []byte("s")); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(h, "x", nil); err == nil {
		t.Fatal("empty secret accepted")
	}
}
