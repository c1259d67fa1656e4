package netsim

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"interedge/internal/clock"
	"interedge/internal/wire"
)

func drainFor(tr Transport, d time.Duration) []wire.Datagram {
	var out []wire.Datagram
	for {
		select {
		case dg := <-tr.Receive():
			out = append(out, dg)
		case <-time.After(d):
			return out
		}
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	n := NewNetwork(WithSeed(1))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	n.SetFaults(a.LocalAddr(), b.LocalAddr(), FaultProfile{DuplicateRate: 1})
	const sends = 20
	for i := 0; i < sends; i++ {
		if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	got := drainFor(b, 50*time.Millisecond)
	if len(got) != 2*sends {
		t.Fatalf("delivered %d datagrams, want %d", len(got), 2*sends)
	}
	st := n.Telemetry().Snapshot()
	if st.Value("netsim_duplicated_total") != sends {
		t.Fatalf("Duplicated = %v, want %v", st.Value("netsim_duplicated_total"), sends)
	}
}

func TestFaultCorruptFlipsExactlyOneBit(t *testing.T) {
	n := NewNetwork(WithSeed(2))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	n.SetFaults(a.LocalAddr(), b.LocalAddr(), FaultProfile{CorruptRate: 1})
	orig := []byte("the quick brown fox")
	sent := append([]byte(nil), orig...)
	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: sent}); err != nil {
		t.Fatal(err)
	}
	dg := <-b.Receive()
	if !bytes.Equal(sent, orig) {
		t.Fatal("corruption mutated the sender's buffer")
	}
	diffBits := 0
	for i := range orig {
		x := orig[i] ^ dg.Payload[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("payload differs by %d bits, want exactly 1", diffBits)
	}
	if st := n.Telemetry().Snapshot(); st.Value("netsim_corrupted_total") != 1 {
		t.Fatalf("Corrupted = %v, want 1", st.Value("netsim_corrupted_total"))
	}
}

func TestFaultReorderShufflesButKeepsAll(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk), WithSeed(3))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")
	n.SetFaults(a.LocalAddr(), b.LocalAddr(), FaultProfile{
		ReorderRate:     0.5,
		ReorderDelayMin: time.Millisecond,
		ReorderDelayMax: 10 * time.Millisecond,
	})
	const sends = 100
	for i := 0; i < sends; i++ {
		if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Millisecond)
	got := drainFor(b, 50*time.Millisecond)
	if len(got) != sends {
		t.Fatalf("delivered %d datagrams, want %d", len(got), sends)
	}
	seen := make(map[byte]bool, sends)
	inOrder := true
	for i, dg := range got {
		seen[dg.Payload[0]] = true
		if int(dg.Payload[0]) != i {
			inOrder = false
		}
	}
	if len(seen) != sends {
		t.Fatalf("unique payloads %d, want %d", len(seen), sends)
	}
	if inOrder {
		t.Fatal("reorder fault left arrival order identical to send order")
	}
	if st := n.Telemetry().Snapshot(); st.Value("netsim_reordered_total") == 0 {
		t.Fatal("Reordered counter is zero")
	}
}

func TestFaultsDeterministicWithSeed(t *testing.T) {
	run := func() map[string]float64 {
		clk := clock.NewManual(time.Unix(0, 0))
		n := NewNetwork(WithClock(clk), WithSeed(42))
		a := attach(t, n, "fd00::1")
		b := attach(t, n, "fd00::2")
		n.SetDefaultFaults(FaultProfile{
			ReorderRate:     0.3,
			ReorderDelayMin: time.Millisecond,
			ReorderDelayMax: 5 * time.Millisecond,
			DuplicateRate:   0.2,
			CorruptRate:     0.1,
			JitterMax:       2 * time.Millisecond,
		})
		for i := 0; i < 200; i++ {
			if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(20 * time.Millisecond)
		drainFor(b, 50*time.Millisecond)
		return counterValues(n.Telemetry().Snapshot())
	}
	s1, s2 := run(), run()
	if !maps.Equal(s1, s2) {
		t.Fatalf("same seed produced different fault patterns:\n%+v\n%+v", s1, s2)
	}
	if s1["netsim_duplicated_total"] == 0 || s1["netsim_reordered_total"] == 0 || s1["netsim_corrupted_total"] == 0 {
		t.Fatalf("expected all fault classes to fire: %+v", s1)
	}
}

func TestScheduleFlapPartition(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")

	done, cancel := n.Schedule(FlapPartition(a.LocalAddr(), b.LocalAddr(), 10*time.Millisecond, 10*time.Millisecond, 2))
	defer cancel()

	send := func() { _ = a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("x")}) }

	// eventually polls until the link's delivery behavior matches want
	// (the scheduler goroutine applies events asynchronously after the
	// clock advance fires their timers).
	eventually := func(wantDelivery bool, what string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			send()
			got := len(drainFor(b, 5*time.Millisecond)) > 0
			if got == wantDelivery {
				return
			}
		}
		t.Fatalf("link never reached state %q", what)
	}

	// t=0: healthy.
	eventually(true, "pre-flap delivery")
	// t=10ms: partitioned.
	clk.Advance(10 * time.Millisecond)
	eventually(false, "partitioned")
	// t=20ms: healed again.
	clk.Advance(10 * time.Millisecond)
	eventually(true, "healed")
	// Run out the remaining flap cycle; schedule must complete healed.
	clk.Advance(30 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("schedule did not complete")
	}
	send()
	if got := len(drainFor(b, 20*time.Millisecond)); got != 1 {
		t.Fatalf("final delivery = %d, want 1", got)
	}
}

func TestScheduleCancelStopsRemainingEvents(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")

	_, cancel := n.Schedule([]FaultEvent{
		{At: 10 * time.Millisecond, Do: func(n *Network) { n.Partition(a.LocalAddr(), b.LocalAddr()) }},
	})
	cancel()
	clk.Advance(20 * time.Millisecond)
	// Give the (cancelled) scheduler goroutine a moment, then verify the
	// partition never happened.
	time.Sleep(10 * time.Millisecond)
	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if got := len(drainFor(b, 20*time.Millisecond)); got != 1 {
		t.Fatalf("delivery after cancel = %d, want 1", got)
	}
}

func TestScheduleLossBurst(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk), WithSeed(5))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")

	base := LinkProfile{}
	done, cancel := n.Schedule(LossBurst(a.LocalAddr(), b.LocalAddr(), base, 1.0, 10*time.Millisecond, 10*time.Millisecond))
	defer cancel()

	send := func() { _ = a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("x")}) }

	clk.Advance(10 * time.Millisecond) // burst begins: 100% loss
	deadline := time.Now().Add(2 * time.Second)
	burstSeen := false
	for time.Now().Before(deadline) {
		send()
		if len(drainFor(b, 5*time.Millisecond)) == 0 {
			burstSeen = true
			break
		}
	}
	if !burstSeen {
		t.Fatal("loss burst never took effect")
	}
	clk.Advance(10 * time.Millisecond) // burst over: base profile restored
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("schedule did not complete")
	}
	send()
	if got := len(drainFor(b, 20*time.Millisecond)); got != 1 {
		t.Fatalf("delivery after burst = %d, want 1", got)
	}
}

func TestScheduleDegradeRampsLatency(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	n := NewNetwork(WithClock(clk))
	a := attach(t, n, "fd00::1")
	b := attach(t, n, "fd00::2")

	base := LinkProfile{}
	worst := LinkProfile{Latency: 40 * time.Millisecond}
	done, cancel := n.Schedule(Degrade(a.LocalAddr(), b.LocalAddr(), base, worst, 0, time.Millisecond, 4))
	defer cancel()
	clk.Advance(4 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("schedule did not complete")
	}

	// Link is now at worst: a send takes the full 40ms of simulated time.
	if err := a.Send(wire.Datagram{Dst: b.LocalAddr(), Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if got := len(drainFor(b, 20*time.Millisecond)); got != 0 {
		t.Fatal("delivered before degraded latency elapsed")
	}
	clk.Advance(40 * time.Millisecond)
	select {
	case <-b.Receive():
	case <-time.After(time.Second):
		t.Fatal("not delivered after latency elapsed")
	}
}
