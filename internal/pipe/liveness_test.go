package pipe

import (
	"crypto/ed25519"
	"sync/atomic"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/wire"
)

func TestKeepaliveKeepsIdlePipeAlive(t *testing.T) {
	net := netsim.NewNetwork()
	keepalive := func(c *Config) { c.KeepaliveInterval = 20 * time.Millisecond }
	a := newNode(t, net, "fd00::1", keepalive)
	b := newNode(t, net, "fd00::2", keepalive)
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	// Idle for several DeadAfter windows: probes must keep the pipe up.
	time.Sleep(400 * time.Millisecond)
	if !a.mgr.HasPeer(b.addr) || !b.mgr.HasPeer(a.addr) {
		t.Fatal("idle pipe died despite keepalives")
	}
	// Whichever side's tick fires first becomes the prober and the other
	// only answers, so judge the probe traffic across both managers.
	sa, sb := a.mgr.Telemetry().Snapshot(), b.mgr.Telemetry().Snapshot()
	if sa.Value("pipe_keepalives_sent_total")+sb.Value("pipe_keepalives_sent_total") == 0 {
		t.Fatal("no keepalives sent on idle pipe")
	}
	if sa.Value("pipe_keepalives_rcvd_total")+sb.Value("pipe_keepalives_rcvd_total") == 0 {
		t.Fatal("no keepalives answered on idle pipe")
	}
	if sa.Value("pipe_peers_lost_total")+sb.Value("pipe_peers_lost_total") != 0 {
		t.Fatalf("peers lost on healthy pipe: %v/%v", sa.Value("pipe_peers_lost_total"), sb.Value("pipe_peers_lost_total"))
	}
	// Probe and ack packets are consumed inside the manager, never
	// dispatched to the packet handler.
	select {
	case got := <-a.rx:
		t.Fatalf("handler saw internal packet: %+v", got)
	case <-time.After(10 * time.Millisecond):
	}
	select {
	case got := <-b.rx:
		t.Fatalf("handler saw internal packet: %+v", got)
	case <-time.After(10 * time.Millisecond):
	}
}

func TestDeadPeerDetectionFiresOnPeerDown(t *testing.T) {
	net := netsim.NewNetwork()
	var downs atomic.Int32
	var downAddr atomic.Value
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.KeepaliveInterval = 20 * time.Millisecond
		c.OnPeerDown = func(addr wire.Addr, _ ed25519.PublicKey) {
			downAddr.Store(addr)
			downs.Add(1)
		}
	})
	b := newNode(t, net, "fd00::2")
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	net.Partition(a.addr, b.addr)

	deadline := time.Now().Add(2 * time.Second)
	for a.mgr.HasPeer(b.addr) {
		if time.Now().After(deadline) {
			t.Fatal("dead peer never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// OnPeerDown runs after the pipe has left the table.
	waitFor(t, "OnPeerDown", func() bool { return downs.Load() != 0 })
	if downs.Load() != 1 {
		t.Fatalf("OnPeerDown fired %d times, want 1", downs.Load())
	}
	if got := downAddr.Load().(wire.Addr); got != b.addr {
		t.Fatalf("OnPeerDown addr = %s, want %s", got, b.addr)
	}
	if st := a.mgr.Telemetry().Snapshot(); st.Value("pipe_peers_lost_total") != 1 {
		t.Fatalf("PeersLost = %v, want 1", st.Value("pipe_peers_lost_total"))
	}
}

func TestReestablishAfterPartitionHeals(t *testing.T) {
	net := netsim.NewNetwork()
	opt := func(c *Config) {
		c.KeepaliveInterval = 20 * time.Millisecond
		c.HandshakeTimeout = 10 * time.Millisecond
		c.HandshakeRetries = 3
		c.Reestablish = true
	}
	a := newNode(t, net, "fd00::1", opt)
	b := newNode(t, net, "fd00::2", opt)
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	net.Partition(a.addr, b.addr)
	deadline := time.Now().Add(2 * time.Second)
	for a.mgr.HasPeer(b.addr) {
		if time.Now().After(deadline) {
			t.Fatal("dead peer never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	net.Heal(a.addr, b.addr)
	deadline = time.Now().Add(5 * time.Second)
	for !a.mgr.HasPeer(b.addr) {
		if time.Now().After(deadline) {
			t.Fatal("pipe never re-established after heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Either side may win the re-handshake race; if b's redial restored the
	// pipe, a's own redial goroutine may still be in its backoff sleep and
	// count the success a beat later. Poll rather than assert immediately.
	deadline = time.Now().Add(2 * time.Second)
	for a.mgr.Telemetry().Snapshot().Value("pipe_reestablished_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Reestablished counter is zero")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The re-established pipe carries traffic again. The peer may briefly
	// hold stale crypto from the old pipe, so retry until a packet lands.
	got := false
	deadline = time.Now().Add(2 * time.Second)
	for !got && time.Now().Before(deadline) {
		if err := a.mgr.Send(b.addr, &wire.ILPHeader{Service: wire.SvcNull, Conn: 1}, []byte("again")); err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		select {
		case <-b.rx:
			got = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	if !got {
		t.Fatal("no delivery over re-established pipe")
	}
}

func TestHandshakeBackoffMetricsAndFailure(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.HandshakeTimeout = 5 * time.Millisecond
		c.HandshakeRetries = 4
	})
	start := time.Now()
	if err := a.mgr.Connect(wire.MustAddr("fd00::dead")); err != ErrHandshakeTimeout {
		t.Fatalf("err = %v, want ErrHandshakeTimeout", err)
	}
	elapsed := time.Since(start)
	st := a.mgr.Telemetry().Snapshot()
	if st.Value("pipe_handshake_attempts_total") != 4 {
		t.Fatalf("HandshakeAttempts = %v, want 4", st.Value("pipe_handshake_attempts_total"))
	}
	if st.Value("pipe_handshake_failures_total") != 1 {
		t.Fatalf("HandshakeFailures = %v, want 1", st.Value("pipe_handshake_failures_total"))
	}
	// Backoff schedule: jittered [d/2, d) waits for d = 5, 10, 20, 40ms —
	// total in [37.5ms, 75ms). Allow slack above, but the cap must hold.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("backoff not capped: took %v", elapsed)
	}
	if elapsed < 25*time.Millisecond {
		t.Fatalf("retries returned too fast for backoff schedule: %v", elapsed)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1", func(c *Config) {
		c.HandshakeTimeout = 10 * time.Millisecond
	})
	// The cap is 8×HandshakeTimeout.
	wantMax := []time.Duration{
		10 * time.Millisecond, // attempt 0
		20 * time.Millisecond, // attempt 1
		40 * time.Millisecond, // attempt 2
		80 * time.Millisecond, // attempt 3: capped
		80 * time.Millisecond, // attempt 4: still capped
		80 * time.Millisecond, // attempt 9: still capped
	}
	for i, attempt := range []int{0, 1, 2, 3, 4, 9} {
		for trial := 0; trial < 20; trial++ {
			d := a.mgr.eng.retry.Attempt(attempt)
			if d < wantMax[i]/2 || d >= wantMax[i] {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v)", attempt, d, wantMax[i]/2, wantMax[i])
			}
		}
	}
}

func TestJitterSeedIsDeterministicPerNode(t *testing.T) {
	seq := func() []time.Duration {
		net := netsim.NewNetwork()
		a := newNode(t, net, "fd00::1")
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = a.mgr.eng.retry.Jitter(100 * time.Millisecond)
		}
		return out
	}
	s1, s2 := seq(), seq()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("jitter sequence diverged at %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}
