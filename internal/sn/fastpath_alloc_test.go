package sn

import (
	"testing"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/sn/cache"
	"interedge/internal/wire"
)

// TestFastPathForwardAllocs pins the full cache-hit forward path's
// allocation budget: terminus entry → cache lookup → re-seal with the raw
// inbound header → transport send. With pooled seal buffers and the scratch
// crypto API the only steady-state allocation is the netsim transport's
// per-delivery datagram copy, which the Send contract makes transport-owned.
// The two ends of an inter-edomain flow are held to the same budget: the
// ingress SN wrapping by header rewrite, and the egress SN unwrapping the
// transit header in the terminus before its cache hit.
func TestFastPathForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes sync.Pool retention and alloc counts")
	}
	net := netsim.NewNetwork()
	node := newTestSN(t, net, "fd00::5")

	// Egress with a no-op handler so its receive side is allocation-free
	// after warmup and does not pollute the measurement.
	egressTr, err := net.Attach(wire.MustAddr("fd00::e"))
	if err != nil {
		t.Fatal(err)
	}
	egressID, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	egress, err := pipe.New(pipe.Config{
		Transport: egressTr,
		Identity:  egressID,
		RxWorkers: 1,
		Handler:   func(pipe.Sender, wire.Addr, wire.ILPHeader, []byte, []byte) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { egress.Close() })
	if err := egress.Connect(node.Addr()); err != nil {
		t.Fatal(err)
	}

	src := wire.MustAddr("fd00::1")
	flow := wire.FlowKey{Src: src, Service: wire.SvcIPFwd, Conn: 7}
	inner := wire.ILPHeader{Service: flow.Service, Conn: flow.Conn, Data: make([]byte, 16)}
	innerRaw, err := inner.Encode()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	forward := cache.Action{Forward: []wire.Addr{egress.LocalAddr()}}

	measure := func(name string, from wire.Addr, hdr wire.ILPHeader, raw []byte) {
		t.Helper()
		before := node.Telemetry().Snapshot().Value("sn_forwarded_total")
		// A run of one, as the terminus serves a lone packet.
		serve := func() {
			node.handleBatch(node.mgr, from, []pipe.RxPacket{{Hdr: hdr, HdrRaw: raw, Payload: payload}})
		}
		for i := 0; i < 32; i++ { // warm pool, crypto scratches, and egress side
			serve()
		}
		allocs := testing.AllocsPerRun(200, serve)
		if allocs > 1 {
			t.Errorf("%s allocated %.1f times per op, want <= 1 (transport copy)", name, allocs)
		}
		if fwd := node.Telemetry().Snapshot().Value("sn_forwarded_total") - before; fwd < 233 {
			t.Errorf("%s: %v of 233 packets forwarded; fast path not exercised", name, fwd)
		}
	}

	node.Cache().Add(flow, forward)
	measure("fast-path forward", src, inner, innerRaw)

	// Ingress: the flow's rule carries the transit header as a rewrite.
	outer, err := wire.TransitHeader(node.Addr(), src, &inner)
	if err != nil {
		t.Fatal(err)
	}
	outerRaw, err := outer.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wrap := forward
	wrap.RewriteHeader = outerRaw
	node.Cache().Add(flow, wrap)
	measure("transit wrap by rewrite", src, inner, innerRaw)

	// Egress: the transit packet arrives from the previous hop, addressed
	// here; the inner flow's rule is the plain forward again.
	node.Cache().Add(flow, forward)
	unwrapped := node.transitUnwrapped.Load()
	measure("transit unwrap and hit", wire.MustAddr("fd00::b1"), outer, outerRaw)
	if n := node.transitUnwrapped.Load() - unwrapped; n != 233 {
		t.Errorf("%d of 233 transit packets unwrapped", n)
	}
}
