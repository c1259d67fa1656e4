package ddos

import (
	"errors"
	"testing"
	"time"

	"interedge/internal/control"
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
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(topo.Close)
	return topo, ed, mod
}

func protect(t *testing.T, h *host.Host, rate, burst float64) {
	t.Helper()
	if _, err := OpProtect.CallFirstHop(h, ProtectArgs{Target: h.Addr(), Rate: rate, Burst: burst}); err != nil {
		t.Fatal(err)
	}
}

func TestLegitTrafficPasses(t *testing.T) {
	topo, ed, _ := newWorld(t)
	target, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	protect(t, target, 1e6, 1e6)
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 16)
	target.OnService(wire.SvcDDoS, func(msg host.Message) { got <- msg })
	conn, err := sender.NewConn(wire.SvcDDoS)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := conn.Send(TargetData(target.Addr()), []byte("legit")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-got:
		case <-time.After(3 * time.Second):
			t.Fatalf("only %d/5 legit packets delivered", i)
		}
	}
}

func TestAttackerDroppedAtFastPath(t *testing.T) {
	topo, ed, mod := newWorld(t)
	target, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny budget: ~2 small packets.
	protect(t, target, 10, 60)
	attacker, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	flood(t, ed.SNs[0], mod, attacker, target)
}

// flood sends the attacker's over-rate traffic toward target and waits for
// the module to drop it on the fast path.
func flood(t *testing.T, node *sn.SN, mod *Module, attacker, target *host.Host) {
	t.Helper()
	conn, err := attacker.NewConn(wire.SvcDDoS)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	// Flood.
	for i := 0; i < 30; i++ {
		if err := conn.Send(TargetData(target.Addr()), payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let the slow path see early packets
	}
	deadline := time.Now().Add(3 * time.Second)
	for node.Counters().RuleDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no fast-path drops; counters %+v", node.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	if mod.ActiveDrops() == 0 {
		t.Fatal("module recorded no penalized flows")
	}
}

func TestDropRuleExpires(t *testing.T) {
	topo, ed, mod := newWorld(t)
	mod.SetPenalty(100 * time.Millisecond)
	target, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	protect(t, target, 10, 60)
	attacker, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan host.Message, 64)
	target.OnService(wire.SvcDDoS, func(msg host.Message) { got <- msg })
	conn, err := attacker.NewConn(wire.SvcDDoS)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if err := conn.Send(TargetData(target.Addr()), payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(3 * time.Second)
	for mod.ActiveDrops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drop installed")
		}
		time.Sleep(time.Millisecond)
	}
	// Wait out the penalty; the bucket refills and a later packet passes
	// again (a fresh packet triggers expiry processing).
	time.Sleep(300 * time.Millisecond)
	drainAll(got)
	if err := conn.Send(TargetData(target.Addr()), []byte("small")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("traffic never recovered after penalty expiry")
	}
}

func drainAll(ch chan host.Message) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func TestUnprotectedTargetRejected(t *testing.T) {
	topo, ed, _ := newWorld(t)
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := sender.NewConn(wire.SvcDDoS)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(TargetData(wire.MustAddr("fd00::dead")), []byte("x")); err != nil {
		t.Fatal(err)
	}
	node := ed.SNs[0]
	deadline := time.Now().Add(3 * time.Second)
	for node.Counters().ModuleErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("packet for unprotected target not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProtectValidation(t *testing.T) {
	topo, ed, _ := newWorld(t)
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpProtect.CallFirstHop(h, ProtectArgs{Rate: 1, Burst: 1}); err == nil {
		t.Fatal("protection of no target accepted")
	}
	if _, err := OpProtect.CallFirstHop(h, ProtectArgs{Target: h.Addr(), Rate: 0, Burst: 1}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestProtectionIsTheCallersOwn: protect and unprotect act only on the
// caller's own address. Another host can neither strip a host's protection
// nor throttle it with a protection of its own.
func TestProtectionIsTheCallersOwn(t *testing.T) {
	topo, ed, mod := newWorld(t)
	a, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	protect(t, a, 10, 60)
	if _, err := OpUnprotect.CallFirstHop(b, ProtectArgs{Target: a.Addr()}); !errors.Is(err, control.ErrRefused) {
		t.Fatalf("B's unprotect of A: err = %v, want a refusal", err)
	}
	if _, err := OpProtect.CallFirstHop(b, ProtectArgs{Target: a.Addr(), Rate: 1e9, Burst: 1e9}); !errors.Is(err, control.ErrRefused) {
		t.Fatalf("B's protect of A: err = %v, want a refusal", err)
	}
	// A's own protection still holds: over-rate traffic dies at the fast path.
	attacker, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	flood(t, ed.SNs[0], mod, attacker, a)
}

func TestUnprotectStopsService(t *testing.T) {
	topo, ed, _ := newWorld(t)
	target, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	protect(t, target, 1e6, 1e6)
	if _, err := OpUnprotect.CallFirstHop(target, ProtectArgs{Target: target.Addr()}); err != nil {
		t.Fatal(err)
	}
	sender, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := sender.NewConn(wire.SvcDDoS)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(TargetData(target.Addr()), []byte("x")); err != nil {
		t.Fatal(err)
	}
	node := ed.SNs[0]
	deadline := time.Now().Add(3 * time.Second)
	for node.Counters().ModuleErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("packet after unprotect not rejected")
		}
		time.Sleep(time.Millisecond)
	}
}
