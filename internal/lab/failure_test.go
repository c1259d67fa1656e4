package lab

import (
	"testing"
	"time"

	"interedge/internal/cryptutil"
	"interedge/internal/handshake"
	"interedge/internal/lookup"
	"interedge/internal/services/echo"
	"interedge/internal/services/pubsub"
	"interedge/internal/sn"
	"interedge/internal/wire"
)

// The full §3.3 failure story for a stateless service: the SN process dies
// and a replacement (new identity, same address) comes up. The host
// re-handshakes via Reassociate and traffic resumes.
func TestSNCrashRestartRecovery(t *testing.T) {
	topo := New()
	defer topo.Close()
	ed, err := topo.AddEdomain("ed-a", 1, func(node *sn.SN, ed *Edomain) error {
		return node.Register(echo.New())
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	snAddr := ed.SNs[0].Addr()

	roundTrip := func(tag string) error {
		conn, err := h.NewConn(wire.SvcEcho)
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := conn.Send(nil, []byte(tag)); err != nil {
			return err
		}
		select {
		case <-conn.Receive():
			return nil
		case <-time.After(time.Second):
			return errTimeout
		}
	}
	if err := roundTrip("before"); err != nil {
		t.Fatalf("pre-crash: %v", err)
	}

	// Crash: the SN closes, its pipe keys and module state are gone.
	ed.SNs[0].Close()

	// Restart: a brand-new SN at the SAME address (the operator rebinds),
	// with a fresh identity and fresh key material.
	tr, err := topo.Net.Attach(snAddr)
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	node2, err := sn.New(sn.Config{Transport: tr, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if err := node2.Register(echo.New()); err != nil {
		t.Fatal(err)
	}

	// The host's old pipe is cryptographically dead: traffic sealed with
	// the old master secret is silently dropped by the new SN.
	if err := roundTrip("stale-pipe"); err == nil {
		t.Fatal("stale pipe delivered traffic to the restarted SN")
	}

	// Recovery: re-handshake, then traffic flows again.
	if err := h.Reassociate(snAddr); err != nil {
		t.Fatalf("reassociate: %v", err)
	}
	if err := roundTrip("after"); err != nil {
		t.Fatalf("post-recovery: %v", err)
	}
}

var errTimeout = timeoutError{}

type timeoutError struct{}

func (timeoutError) Error() string { return "timeout" }

// Stateful-service recovery end to end: pub/sub subscriber state dies with
// the SN; host-driven reconstruction (Reassociate + Reestablish) restores
// the subscription on the replacement node (§3.3).
func TestStatefulServiceRecoveryPubSub(t *testing.T) {
	topo := New()
	defer topo.Close()
	mkSetup := func() SNSetup {
		return func(node *sn.SN, ed *Edomain) error {
			return node.Register(pubsub.New(ed.Core, topo.Fabric, topo.Global))
		}
	}
	ed, err := topo.AddEdomain("ed-a", 2, mkSetup())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Mesh(); err != nil {
		t.Fatal(err)
	}
	owner, err := cryptutil.NewSigningKeypair()
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Global.CreateGroup("t", owner.Public); err != nil {
		t.Fatal(err)
	}
	if err := topo.Global.PostOpenStatement("t", lookup.SignOpenStatement(owner, "t")); err != nil {
		t.Fatal(err)
	}

	pub, err := topo.NewHost(ed, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := topo.NewHost(ed, 1)
	if err != nil {
		t.Fatal(err)
	}
	subSNAddr := ed.SNs[1].Addr()

	pc, err := pubsub.NewClient(pub)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := pubsub.NewClient(sub)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 8)
	if err := sc.Subscribe("t", nil, false, func(_ string, msg []byte) { got <- string(msg) }); err != nil {
		t.Fatal(err)
	}
	if err := pc.RegisterSender("t"); err != nil {
		t.Fatal(err)
	}
	if err := pc.Publish("t", []byte("one")); err != nil {
		t.Fatal(err)
	}
	awaitMsg(t, got, "one")

	// The subscriber's SN dies and is replaced at the same address by a
	// node whose pub/sub state starts empty; the subscriber must
	// reconstruct its own state.
	if _, err := topo.RestartSN(ed, 1, mkSetup()); err != nil {
		t.Fatal(err)
	}
	if err := sub.Reassociate(subSNAddr); err != nil {
		t.Fatal(err)
	}
	if err := sc.Reestablish(); err != nil {
		t.Fatal(err)
	}

	if err := pc.Publish("t", []byte("two")); err != nil {
		t.Fatal(err)
	}
	awaitMsg(t, got, "two")
}

func awaitMsg(t *testing.T, ch chan string, want string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case got := <-ch:
			if got == want {
				return
			}
		case <-deadline:
			t.Fatalf("never received %q", want)
		}
	}
}
