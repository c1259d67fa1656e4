package netsim

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"testing"
	"time"

	"interedge/internal/wire"
)

// loopTransport hides the BatchSender implementation of a Transport, so the
// package-level SendBatch helper must take its per-Send fallback path.
type loopTransport struct {
	inner Transport
	sends int
}

func (l *loopTransport) LocalAddr() wire.Addr          { return l.inner.LocalAddr() }
func (l *loopTransport) Receive() <-chan wire.Datagram { return l.inner.Receive() }
func (l *loopTransport) Close() error                  { return l.inner.Close() }
func (l *loopTransport) Send(dg wire.Datagram) error {
	l.sends++
	return l.inner.Send(dg)
}

func mkBatch(dst wire.Addr, n int) []wire.Datagram {
	dgs := make([]wire.Datagram, n)
	for i := range dgs {
		dgs[i] = wire.Datagram{Dst: dst, Payload: []byte(fmt.Sprintf("pkt-%03d", i))}
	}
	return dgs
}

func drainN(t *testing.T, rx <-chan wire.Datagram, n int) []wire.Datagram {
	t.Helper()
	out := make([]wire.Datagram, 0, n)
	for len(out) < n {
		select {
		case dg := <-rx:
			out = append(out, dg)
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout after %d/%d datagrams", len(out), n)
		}
	}
	return out
}

func TestFabricSendBatchOrderAndStats(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(wire.MustAddr("fd00::1"))
	b, _ := n.Attach(wire.MustAddr("fd00::2"))
	const count = 50
	sent, err := SendBatch(a, mkBatch(b.LocalAddr(), count))
	if err != nil || sent != count {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	got := drainN(t, b.Receive(), count)
	for i, dg := range got {
		if want := fmt.Sprintf("pkt-%03d", i); string(dg.Payload) != want {
			t.Fatalf("datagram %d = %q, want %q (order broken)", i, dg.Payload, want)
		}
		if dg.Src != a.LocalAddr() {
			t.Fatalf("datagram %d Src = %s", i, dg.Src)
		}
	}
	st := n.Telemetry().Snapshot()
	if st.Value("netsim_batches_total") != 1 {
		t.Fatalf("Batches = %v, want 1 (native vectored path)", st.Value("netsim_batches_total"))
	}
	if st.Value("netsim_sent_total") != count || st.Value("netsim_delivered_total") != count {
		t.Fatalf("Sent/Delivered = %v/%v, want %v/%v", st.Value("netsim_sent_total"), st.Value("netsim_delivered_total"), count, count)
	}
}

func TestSendBatchHelperFallsBackToSend(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(wire.MustAddr("fd00::1"))
	b, _ := n.Attach(wire.MustAddr("fd00::2"))
	lt := &loopTransport{inner: a}
	const count = 7
	sent, err := SendBatch(lt, mkBatch(b.LocalAddr(), count))
	if err != nil || sent != count {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	if lt.sends != count {
		t.Fatalf("fallback Sends = %d, want %d", lt.sends, count)
	}
	drainN(t, b.Receive(), count)
	if st := n.Telemetry().Snapshot(); st.Value("netsim_batches_total") != 0 {
		t.Fatalf("Batches = %v, want 0 (helper must not claim a native batch)", st.Value("netsim_batches_total"))
	}
}

func TestFabricSendBatchUnknownDestinationMidBatch(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(wire.MustAddr("fd00::1"))
	b, _ := n.Attach(wire.MustAddr("fd00::2"))
	dgs := mkBatch(b.LocalAddr(), 5)
	dgs[3].Dst = wire.MustAddr("fd00::dead") // not attached
	sent, err := SendBatch(a, dgs)
	if !errors.Is(err, ErrUnknownDestination) {
		t.Fatalf("err = %v", err)
	}
	if sent != 3 {
		t.Fatalf("sent = %d, want 3 (dgs[n:] not sent on error)", sent)
	}
	drainN(t, b.Receive(), 3)
}

func TestFabricSendBatchPartitionCountsConsumed(t *testing.T) {
	n := NewNetwork()
	a, _ := n.Attach(wire.MustAddr("fd00::1"))
	b, _ := n.Attach(wire.MustAddr("fd00::2"))
	n.Partition(a.LocalAddr(), b.LocalAddr())
	sent, err := SendBatch(a, mkBatch(b.LocalAddr(), 4))
	if err != nil || sent != 4 {
		t.Fatalf("SendBatch = %d, %v (black-holed datagrams count as consumed)", sent, err)
	}
	if st := n.Telemetry().Snapshot(); st.Value("netsim_dropped_dead_total") != 4 {
		t.Fatalf("DroppedDead = %v, want 4", st.Value("netsim_dropped_dead_total"))
	}
}

// TestFabricBatchFaultDeterminism checks that a batch observes the same
// seeded loss/duplicate pattern the equivalent Send sequence would: the
// random draws are strictly per-datagram, in order, on both paths.
func TestFabricBatchFaultDeterminism(t *testing.T) {
	run := func(batch bool) map[string]float64 {
		n := NewNetwork(WithSeed(42))
		a, _ := n.Attach(wire.MustAddr("fd00::1"))
		b, _ := n.Attach(wire.MustAddr("fd00::2"))
		n.SetLinkBoth(a.LocalAddr(), b.LocalAddr(), LinkProfile{LossRate: 0.3})
		n.SetFaultsBoth(a.LocalAddr(), b.LocalAddr(), FaultProfile{DuplicateRate: 0.2, CorruptRate: 0.1})
		dgs := mkBatch(b.LocalAddr(), 200)
		if batch {
			if _, err := SendBatch(a, dgs); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, dg := range dgs {
				if err := a.Send(dg); err != nil {
					t.Fatal(err)
				}
			}
		}
		// All deliveries are synchronous on an ideal-latency link except
		// duplicates, which transmit() hands to a goroutine; wait for the
		// accounting to converge.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			st := n.Telemetry().Snapshot()
			if st.Value("netsim_delivered_total")+st.Value("netsim_dropped_queue_total") == st.Value("netsim_sent_total")-st.Value("netsim_dropped_loss_total")+st.Value("netsim_duplicated_total") {
				break
			}
			time.Sleep(time.Millisecond)
		}
		st := counterValues(n.Telemetry().Snapshot())
		delete(st, "netsim_batches_total") // the one counter that legitimately differs
		return st
	}
	seq, bat := run(false), run(true)
	if !maps.Equal(seq, bat) {
		t.Fatalf("fault pattern diverged:\n sequential: %+v\n batch:      %+v", seq, bat)
	}
}

// forEachUDPTier runs a UDP transport test on the default tier (GSO where
// the kernel has it) and again with GSO off (sendmmsg framing).
func forEachUDPTier(t *testing.T, test func(t *testing.T, opts ...UDPOption)) {
	t.Run("default", func(t *testing.T) { test(t) })
	t.Run("nogso", func(t *testing.T) { test(t, WithoutUDPGSO()) })
}

func TestUDPSendBatchRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []UDPOption
	}{
		{"vectored", nil},
		{"vectored-nogso", []UDPOption{WithoutUDPGSO()}},
		{"fallback", []UDPOption{WithoutMMsg()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := NewUDPDirectory()
			addrA, addrB := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
			ta, err := NewUDPTransport(addrA, "127.0.0.1:0", dir, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ta.Close()
			tb, err := NewUDPTransport(addrB, "127.0.0.1:0", dir, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()

			const count = 40 // > rxBatch, so the vectored read loop wraps
			sent, err := SendBatch(ta, mkBatch(addrB, count))
			if err != nil || sent != count {
				t.Fatalf("SendBatch = %d, %v", sent, err)
			}
			seen := make(map[string]bool, count)
			for _, dg := range drainN(t, tb.Receive(), count) {
				if dg.Src != addrA {
					t.Fatalf("Src = %s", dg.Src)
				}
				seen[string(dg.Payload)] = true
			}
			if len(seen) != count {
				t.Fatalf("received %d distinct payloads, want %d", len(seen), count)
			}
			st := ta.telem.Snapshot()
			if st.Value("transport_udp_tx_packets_total") != count || st.Value("transport_udp_tx_batches_total") != 1 {
				t.Fatalf("udp tx packets/batches = %v/%v, want %v/1", st.Value("transport_udp_tx_packets_total"), st.Value("transport_udp_tx_batches_total"), count)
			}
			if rs := tb.telem.Snapshot(); rs.Value("transport_udp_rx_packets_total") != count || rs.Value("transport_udp_rx_malformed_total") != 0 || rs.Value("transport_udp_rx_dropped_total") != 0 {
				t.Fatalf("receiver stats = %+v", rs)
			}
		})
	}
}

func TestUDPSendBatchMixedDestinations(t *testing.T) {
	forEachUDPTier(t, func(t *testing.T, opts ...UDPOption) {
		dir := NewUDPDirectory()
		addrA, addrB, addrC := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b"), wire.MustAddr("fd00::c")
		ta, err := NewUDPTransport(addrA, "127.0.0.1:0", dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer ta.Close()
		tb, _ := NewUDPTransport(addrB, "127.0.0.1:0", dir, opts...)
		defer tb.Close()
		tc, _ := NewUDPTransport(addrC, "127.0.0.1:0", dir, opts...)
		defer tc.Close()

		dgs := []wire.Datagram{
			{Dst: addrB, Payload: []byte("b0")},
			{Dst: addrC, Payload: []byte("c0")},
			{Dst: addrB, Payload: []byte("b1")},
		}
		if sent, err := SendBatch(ta, dgs); err != nil || sent != 3 {
			t.Fatalf("SendBatch = %d, %v", sent, err)
		}
		gotB := drainN(t, tb.Receive(), 2)
		if string(gotB[0].Payload) != "b0" || string(gotB[1].Payload) != "b1" {
			t.Fatalf("b order = %q, %q", gotB[0].Payload, gotB[1].Payload)
		}
		if gotC := drainN(t, tc.Receive(), 1); string(gotC[0].Payload) != "c0" {
			t.Fatalf("c = %q", gotC[0].Payload)
		}
	})
}

func TestUDPSendBatchUnknownDestination(t *testing.T) {
	forEachUDPTier(t, func(t *testing.T, opts ...UDPOption) {
		dir := NewUDPDirectory()
		addrA, addrB := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
		ta, err := NewUDPTransport(addrA, "127.0.0.1:0", dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer ta.Close()
		tb, _ := NewUDPTransport(addrB, "127.0.0.1:0", dir, opts...)
		defer tb.Close()

		dgs := mkBatch(addrB, 4)
		dgs[2].Dst = wire.MustAddr("fd00::dead")
		sent, err := SendBatch(ta, dgs)
		if !errors.Is(err, ErrUnknownDestination) || sent != 2 {
			t.Fatalf("SendBatch = %d, %v; want 2, ErrUnknownDestination", sent, err)
		}
		drainN(t, tb.Receive(), 2)
	})
}

func TestUDPRxMalformedAndDropCounters(t *testing.T) {
	forEachUDPTier(t, func(t *testing.T, opts ...UDPOption) {
		dir := NewUDPDirectory()
		addr := wire.MustAddr("fd00::a")
		// Queue depth 1: the second well-formed datagram that arrives while
		// nothing reads the channel must be counted as dropped.
		tr, err := NewUDPTransport(addr, "127.0.0.1:0", dir, append(opts, WithUDPQueueDepth(1))...)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ep, _ := dir.Lookup(addr)
		raw, err := net.DialUDP("udp", nil, ep)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()

		// Malformed: too short to hold a datagram header.
		if _, err := raw.Write([]byte{0x01, 0x02}); err != nil {
			t.Fatal(err)
		}
		waitFor := func(name string, want float64) {
			t.Helper()
			deadline := time.Now().Add(2 * time.Second)
			for tr.telem.Snapshot().Value(name) < want {
				if time.Now().After(deadline) {
					t.Fatalf("%s = %v, want >= %v", name, tr.telem.Snapshot().Value(name), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
		waitFor("transport_udp_rx_malformed_total", 1)

		good := wire.Datagram{Src: wire.MustAddr("fd00::b"), Dst: addr, Payload: []byte("x")}
		enc, err := good.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if _, err := raw.Write(enc); err != nil {
				t.Fatal(err)
			}
		}
		waitFor("transport_udp_rx_dropped_total", 1)
		if st := tr.telem.Snapshot(); st.Value("transport_udp_rx_packets_total") == 0 {
			t.Fatalf("RxPackets = 0, want > 0; stats\n%s", st)
		}
	})
}

// TestUDPGSOCapabilityProbe logs (never fails) whether this kernel takes
// UDP_SEGMENT; scripts/check.sh greps this output so CI records which leg
// the rest of the suite exercised.
func TestUDPGSOCapabilityProbe(t *testing.T) {
	if UDPGSOSupported() {
		t.Log("UDP GSO: supported; SendBatch coalesces per-peer super-datagrams")
	} else {
		t.Log("UDP GSO: unsupported; SendBatch uses the sendmmsg/per-packet fallback")
	}
}

func TestUDPGSOSuperDatagramRoundTrip(t *testing.T) {
	if !UDPGSOSupported() {
		t.Skip("UDP_SEGMENT unavailable")
	}
	dir := NewUDPDirectory()
	addrA, addrB := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
	ta, err := NewUDPTransport(addrA, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewUDPTransport(addrB, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Equal-size datagrams to one peer: the whole batch must ride one
	// super-datagram (one message, segs == count).
	const count = 32
	sent, err := SendBatch(ta, mkBatch(addrB, count))
	if err != nil || sent != count {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	seen := make(map[string]bool, count)
	for _, dg := range drainN(t, tb.Receive(), count) {
		seen[string(dg.Payload)] = true
	}
	if len(seen) != count {
		t.Fatalf("received %d distinct payloads, want %d", len(seen), count)
	}
	if st := ta.telem.Snapshot(); st.Value("transport_udp_tx_packets_total") != count || st.Value("transport_udp_tx_batches_total") != 1 {
		t.Fatalf("udp tx packets/batches = %v/%v, want %v/1", st.Value("transport_udp_tx_packets_total"), st.Value("transport_udp_tx_batches_total"), count)
	}
	if got := ta.gsoSegments.Count(); got == 0 {
		t.Fatal("transport_gso_segments recorded no observations on the GSO path")
	}
}

func TestUDPGSOMixedSizeRuns(t *testing.T) {
	if !UDPGSOSupported() {
		t.Skip("UDP_SEGMENT unavailable")
	}
	dir := NewUDPDirectory()
	addrA, addrB := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
	ta, err := NewUDPTransport(addrA, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewUDPTransport(addrB, "127.0.0.1:0", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Sizes chosen to exercise every run boundary: equal run, shrinking
	// (shorter segment closes a run), growing (larger segment opens one).
	sizes := []int{100, 100, 100, 40, 100, 200, 200, 7, 7, 500}
	dgs := make([]wire.Datagram, len(sizes))
	for i, sz := range sizes {
		p := make([]byte, sz)
		for j := range p {
			p[j] = byte(i)
		}
		dgs[i] = wire.Datagram{Dst: addrB, Payload: p}
	}
	sent, err := SendBatch(ta, dgs)
	if err != nil || sent != len(dgs) {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	got := drainN(t, tb.Receive(), len(dgs))
	counts := map[int]int{}
	for _, dg := range got {
		counts[len(dg.Payload)]++
		if len(dg.Payload) > 0 && dg.Payload[0] != byte(dg.Payload[len(dg.Payload)-1]) {
			t.Fatal("payload bytes mixed across segment boundaries")
		}
	}
	want := map[int]int{100: 4, 40: 1, 200: 2, 7: 2, 500: 1}
	for sz, n := range want {
		if counts[sz] != n {
			t.Fatalf("size %d: got %d datagrams, want %d (counts=%v)", sz, counts[sz], n, counts)
		}
	}
}

// TestUDPGSODeterminismVsFallback sends an identical seeded batch through
// a GSO transport and a forced-fallback transport: coalescing must be
// invisible — same datagrams, same per-peer order, same counts.
func TestUDPGSODeterminismVsFallback(t *testing.T) {
	run := func(opts ...UDPOption) []string {
		dir := NewUDPDirectory()
		addrA, addrB := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")
		ta, err := NewUDPTransport(addrA, "127.0.0.1:0", dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer ta.Close()
		tb, err := NewUDPTransport(addrB, "127.0.0.1:0", dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		// Deterministic LCG sizes: a mix of equal runs and breaks.
		dgs := make([]wire.Datagram, 48)
		x := uint32(12345)
		for i := range dgs {
			x = x*1664525 + 1013904223
			sz := 20 + int(x%4)*30 // four distinct sizes → runs form and break
			p := make([]byte, sz)
			p[0] = byte(i)
			dgs[i] = wire.Datagram{Dst: addrB, Payload: p}
		}
		sent, err := SendBatch(ta, dgs)
		if err != nil || sent != len(dgs) {
			t.Fatalf("SendBatch = %d, %v", sent, err)
		}
		got := drainN(t, tb.Receive(), len(dgs))
		out := make([]string, len(got))
		for i, dg := range got {
			out[i] = fmt.Sprintf("%d:%d", dg.Payload[0], len(dg.Payload))
		}
		return out
	}
	gso := run()
	fallback := run(WithoutUDPGSO())
	if len(gso) != len(fallback) {
		t.Fatalf("delivery count diverged: gso=%d fallback=%d", len(gso), len(fallback))
	}
	for i := range gso {
		if gso[i] != fallback[i] {
			t.Fatalf("datagram %d diverged through GSO coalescing: gso=%s fallback=%s", i, gso[i], fallback[i])
		}
	}
}

func TestUDPSendBatchAfterClose(t *testing.T) {
	forEachUDPTier(t, func(t *testing.T, opts ...UDPOption) {
		dir := NewUDPDirectory()
		tr, err := NewUDPTransport(wire.MustAddr("fd00::a"), "127.0.0.1:0", dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		tr.Close()
		if _, err := SendBatch(tr, mkBatch(wire.MustAddr("fd00::b"), 2)); !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	})
}
