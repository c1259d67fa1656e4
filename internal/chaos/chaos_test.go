package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/pipe"
	"interedge/internal/wire"
)

// payloadLen is the size of every chaos payload: a 4-byte sequence number,
// sequence-derived filler, and a trailing CRC32 so any corruption that
// slipped past PSP authentication would be caught at the receiver.
const payloadLen = 32

func mkPayload(seq uint32) []byte {
	p := make([]byte, payloadLen)
	binary.BigEndian.PutUint32(p, seq)
	for i := 4; i < payloadLen-4; i++ {
		p[i] = byte(seq>>(uint(i%4)*8)) ^ byte(i)
	}
	binary.BigEndian.PutUint32(p[payloadLen-4:], crc32.ChecksumIEEE(p[:payloadLen-4]))
	return p
}

// checkPayload validates the CRC and returns the sequence number.
func checkPayload(p []byte) (uint32, bool) {
	if len(p) != payloadLen {
		return 0, false
	}
	if crc32.ChecksumIEEE(p[:payloadLen-4]) != binary.BigEndian.Uint32(p[payloadLen-4:]) {
		return 0, false
	}
	return binary.BigEndian.Uint32(p), true
}

// newManager attaches a pipe manager at addr with test-friendly handshake
// timing (fast retries so chaos-induced handshake losses resolve quickly).
func newManager(t *testing.T, net *netsim.Network, addr string, handler pipe.PacketHandler, edit func(*pipe.Config)) *pipe.Manager {
	t.Helper()
	tr, err := net.Attach(wire.MustAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipe.Config{
		Transport:        tr,
		Identity:         id,
		Handler:          handler,
		HandshakeTimeout: 10 * time.Millisecond,
		HandshakeRetries: 20,
	}
	if edit != nil {
		edit(&cfg)
	}
	m, err := pipe.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// waitQuiesce polls counter until it stops changing for settle (or deadline
// expires) and returns the final value. Chaos delivery is asynchronous —
// duplicates and reordered stragglers arrive on their own timers — so tests
// wait for the count to go quiet rather than for an exact total.
func waitQuiesce(t *testing.T, deadline time.Duration, settle time.Duration, counter func() int) int {
	t.Helper()
	last, lastChange := counter(), time.Now()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		time.Sleep(10 * time.Millisecond)
		if n := counter(); n != last {
			last, lastChange = n, time.Now()
			continue
		}
		if time.Since(lastChange) >= settle {
			break
		}
	}
	return last
}

func waitCond(t *testing.T, deadline time.Duration, what string, cond func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPipeIntegrityUnderCombinedFaults drives one pipe through every fault
// class at once — reordering, duplication, corruption, jitter — across a
// fixed seed set and asserts the two integrity invariants: no corrupted
// payload ever reaches the handler (PSP authentication drops it first) and
// no sequence number is ever delivered twice (replay window).
func TestPipeIntegrityUnderCombinedFaults(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := netsim.NewNetwork(netsim.WithSeed(seed))
			var mu sync.Mutex
			got := make(map[uint32]int)
			bad := 0
			handler := func(_ pipe.Sender, src wire.Addr, hdr wire.ILPHeader, _, payload []byte) {
				seq, ok := checkPayload(payload)
				mu.Lock()
				if !ok {
					bad++
				} else {
					got[seq]++
				}
				mu.Unlock()
			}
			a := newManager(t, net, "fd00::a", nil, nil)
			b := newManager(t, net, "fd00::b", handler, nil)
			net.SetFaultsBoth(a.LocalAddr(), b.LocalAddr(), netsim.FaultProfile{
				ReorderRate:     0.25,
				ReorderDelayMin: time.Millisecond,
				ReorderDelayMax: 3 * time.Millisecond,
				DuplicateRate:   0.2,
				CorruptRate:     0.15,
				JitterMax:       time.Millisecond,
			})
			// The handshake itself runs under faults: corrupted or reordered
			// msg1/msg2 are absorbed by the retransmission loop.
			if err := a.Connect(b.LocalAddr()); err != nil {
				t.Fatalf("connect under faults: %v", err)
			}

			const sends = 400
			hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
			for i := 0; i < sends; i++ {
				if err := a.Send(b.LocalAddr(), &hdr, mkPayload(uint32(i))); err != nil {
					t.Fatal(err)
				}
			}
			delivered := waitQuiesce(t, 5*time.Second, 300*time.Millisecond, func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(got)
			})

			mu.Lock()
			defer mu.Unlock()
			if bad != 0 {
				t.Fatalf("%d corrupted payloads reached the handler", bad)
			}
			for seq, n := range got {
				if n != 1 {
					t.Fatalf("seq %d delivered %d times", seq, n)
				}
			}
			// Corrupted copies are dropped by PSP, so some sequence numbers
			// legitimately never arrive — but most must.
			if delivered < sends*6/10 {
				t.Fatalf("only %d/%d payloads delivered", delivered, sends)
			}
			// The run proves nothing unless every fault class actually fired.
			st := net.Telemetry().Snapshot()
			if st.Value("netsim_reordered_total") == 0 || st.Value("netsim_duplicated_total") == 0 || st.Value("netsim_corrupted_total") == 0 {
				t.Fatalf("fault classes did not all fire: %+v", st)
			}
		})
	}
}

// recordingTransport wraps a netsim transport and records, per FrameILP
// datagram, the cleartext application sequence number in substrate arrival
// order. The pipe layer promises handlers see one source's packets in
// arrival order (sharded rx workers); this records the ground truth to
// compare against.
type recordingTransport struct {
	netsim.Transport
	mu   sync.Mutex
	seqs []uint32
	out  chan wire.Datagram
}

func newRecordingTransport(inner netsim.Transport) *recordingTransport {
	r := &recordingTransport{Transport: inner, out: make(chan wire.Datagram, 4096)}
	go func() {
		defer close(r.out)
		for dg := range inner.Receive() {
			if seq, ok := ilpAppSeq(dg.Payload); ok {
				r.mu.Lock()
				r.seqs = append(r.seqs, seq)
				r.mu.Unlock()
			}
			r.out <- dg
		}
	}()
	return r
}

func (r *recordingTransport) Receive() <-chan wire.Datagram { return r.out }

func (r *recordingTransport) arrivals() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint32(nil), r.seqs...)
}

// ilpAppSeq extracts the test payload's sequence number from a sealed
// FrameILP datagram without any keys: the PSP layout is frame byte, 12-byte
// PSP header, 2-byte ciphertext length, the encrypted ILP header (+tag),
// then the cleartext-but-authenticated payload, whose first 4 bytes are the
// sequence counter.
func ilpAppSeq(p []byte) (uint32, bool) {
	if len(p) < 1+wire.PSPHeaderSize+2 || wire.FrameType(p[0]) != wire.FrameILP {
		return 0, false
	}
	ctLen := int(binary.BigEndian.Uint16(p[1+wire.PSPHeaderSize:]))
	off := 1 + wire.PSPHeaderSize + 2 + ctLen
	if len(p) < off+4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(p[off:]), true
}

// TestPerSourceOrderingUnderReorder pins the ordering contract under an
// actively reordering substrate: whatever arrival order the network
// produces, the handler must observe exactly that order for a single
// source — the rx sharding may never reorder within a peer.
func TestPerSourceOrderingUnderReorder(t *testing.T) {
	net := netsim.NewNetwork(netsim.WithSeed(7))
	aAddr, bAddr := wire.MustAddr("fd00::a"), wire.MustAddr("fd00::b")

	var mu sync.Mutex
	var handled []uint32
	handler := func(_ pipe.Sender, src wire.Addr, hdr wire.ILPHeader, _, payload []byte) {
		seq, ok := checkPayload(payload)
		if !ok {
			t.Errorf("corrupted payload reached handler")
			return
		}
		mu.Lock()
		handled = append(handled, seq)
		mu.Unlock()
	}

	inner, err := net.Attach(bAddr)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecordingTransport(inner)
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipe.New(pipe.Config{Transport: rec, Identity: id, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a := newManager(t, net, "fd00::a", nil, nil)

	// Reorder-only on a→b: no loss, no duplication, so every datagram
	// arrives exactly once and the comparison is exact.
	net.SetFaults(aAddr, bAddr, netsim.FaultProfile{
		ReorderRate:     0.3,
		ReorderDelayMin: 2 * time.Millisecond,
		ReorderDelayMax: 5 * time.Millisecond,
	})
	if err := a.Connect(bAddr); err != nil {
		t.Fatal(err)
	}

	const sends = 500
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	for i := 0; i < sends; i++ {
		if err := a.Send(bAddr, &hdr, mkPayload(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, 5*time.Second, "all payloads delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(handled) == sends
	})

	if st := net.Telemetry().Snapshot(); st.Value("netsim_reordered_total") == 0 {
		t.Fatal("substrate reordered nothing; test exercised nothing")
	}
	arr := rec.arrivals()
	mu.Lock()
	defer mu.Unlock()
	if len(arr) != len(handled) {
		t.Fatalf("recorded %d arrivals, handler saw %d", len(arr), len(handled))
	}
	for i := range arr {
		if handled[i] != arr[i] {
			t.Fatalf("position %d: handler saw seq %d, substrate delivered seq %d", i, handled[i], arr[i])
		}
	}
}

// TestNoDoubleDeliveryAcrossRekey duplicates EVERY datagram while the
// sender rotates its key epoch mid-stream: each payload must still reach
// the handler exactly once (the per-epoch replay windows reject the
// copies, including copies that straddle a rotation).
func TestNoDoubleDeliveryAcrossRekey(t *testing.T) {
	net := netsim.NewNetwork(netsim.WithSeed(7))
	var mu sync.Mutex
	got := make(map[uint32]int)
	handler := func(_ pipe.Sender, src wire.Addr, hdr wire.ILPHeader, _, payload []byte) {
		seq, ok := checkPayload(payload)
		if !ok {
			t.Errorf("corrupted payload reached handler")
			return
		}
		mu.Lock()
		got[seq]++
		mu.Unlock()
	}
	a := newManager(t, net, "fd00::a", nil, nil)
	b := newManager(t, net, "fd00::b", handler, nil)
	if err := a.Connect(b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	net.SetFaults(a.LocalAddr(), b.LocalAddr(), netsim.FaultProfile{
		DuplicateRate: 1.0,
		JitterMax:     500 * time.Microsecond,
	})

	const batches, perBatch = 3, 100
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	for bi := 0; bi < batches; bi++ {
		for i := 0; i < perBatch; i++ {
			if err := a.Send(b.LocalAddr(), &hdr, mkPayload(uint32(bi*perBatch+i))); err != nil {
				t.Fatal(err)
			}
		}
		// Let the batch (and its jittered duplicates) drain before rotating:
		// the receiver only keeps the current and previous epoch windows.
		waitCond(t, 2*time.Second, "batch drained", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) == (bi+1)*perBatch
		})
		if err := a.RotateAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Give straggling duplicates time to arrive (and be rejected).
	waitQuiesce(t, 2*time.Second, 200*time.Millisecond, func() int {
		st := net.Telemetry().Snapshot()
		return int(st.Value("netsim_delivered_total"))
	})

	mu.Lock()
	defer mu.Unlock()
	if len(got) != batches*perBatch {
		t.Fatalf("delivered %d distinct payloads, want %d", len(got), batches*perBatch)
	}
	for seq, n := range got {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times despite replay protection", seq, n)
		}
	}
	if st := net.Telemetry().Snapshot(); st.Value("netsim_duplicated_total") < batches*perBatch {
		t.Fatalf("substrate duplicated only %v datagrams", st.Value("netsim_duplicated_total"))
	}
}

// TestFlappingPartitionReestablishes runs a scripted flapping partition
// against a live pipe with keepalives: each flap outlasts DeadAfter, so
// dead-peer detection must tear the pipe down, and after the final heal the
// automatic re-establishment loop must bring it back and carry traffic.
func TestFlappingPartitionReestablishes(t *testing.T) {
	net := netsim.NewNetwork(netsim.WithSeed(42))
	var mu sync.Mutex
	got := make(map[uint32]int)
	handler := func(_ pipe.Sender, src wire.Addr, hdr wire.ILPHeader, _, payload []byte) {
		if seq, ok := checkPayload(payload); ok {
			mu.Lock()
			got[seq]++
			mu.Unlock()
		}
	}
	liveness := func(c *pipe.Config) {
		c.KeepaliveInterval = 20 * time.Millisecond
		c.DeadAfter = 80 * time.Millisecond
		c.Reestablish = true
		c.HandshakeRetries = 3
	}
	a := newManager(t, net, "fd00::a", nil, liveness)
	b := newManager(t, net, "fd00::b", handler, liveness)
	if err := a.Connect(b.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	// Two flaps of 150ms each (well past DeadAfter=80ms), ending healed.
	done, cancel := net.Schedule(netsim.FlapPartition(
		a.LocalAddr(), b.LocalAddr(), 50*time.Millisecond, 150*time.Millisecond, 2))
	defer cancel()
	<-done

	waitCond(t, 5*time.Second, "pipe re-established on both ends", func() bool {
		return a.HasPeer(b.LocalAddr()) && b.HasPeer(a.LocalAddr())
	})
	sa, sb := a.Telemetry().Snapshot(), b.Telemetry().Snapshot()
	if sa.Value("pipe_peers_lost_total")+sb.Value("pipe_peers_lost_total") == 0 {
		t.Fatal("no pipe was ever torn down; the flap did not bite")
	}
	if sa.Value("pipe_reestablished_total")+sb.Value("pipe_reestablished_total") == 0 {
		t.Fatal("no automatic re-establishment recorded")
	}

	// The recovered pipe must carry traffic end to end.
	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 9}
	seq := uint32(0xF1A90000)
	waitCond(t, 5*time.Second, "post-recovery payload delivered", func() bool {
		_ = a.Send(b.LocalAddr(), &hdr, mkPayload(seq))
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		return got[seq] > 0
	})
}

// TestBatchedForwardingUnderCombinedFaults drives the coalescing egress
// through the fault injector: a floods b, b's handler forwards every packet
// to c through its worker's batching Sender, and the b→c link reorders,
// duplicates, corrupts, and jitters. The vectored fabric path must uphold
// the same invariants as per-datagram sends — faults are drawn per
// datagram, so batching may not smuggle corrupted payloads past PSP or
// deliver a sequence number twice — and the batch machinery must actually
// engage.
func TestBatchedForwardingUnderCombinedFaults(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := netsim.NewNetwork(netsim.WithSeed(seed))
			var mu sync.Mutex
			got := make(map[uint32]int)
			bad := 0
			sink := func(_ pipe.Sender, src wire.Addr, hdr wire.ILPHeader, _, payload []byte) {
				seq, ok := checkPayload(payload)
				mu.Lock()
				if !ok {
					bad++
				} else {
					got[seq]++
				}
				mu.Unlock()
			}
			a := newManager(t, net, "fd00::a", nil, nil)
			c := newManager(t, net, "fd00::c", sink, nil)
			fwd := func(tx pipe.Sender, src wire.Addr, hdr wire.ILPHeader, hdrRaw, payload []byte) {
				if err := tx.SendHeaderBytes(c.LocalAddr(), hdrRaw, payload); err != nil {
					t.Errorf("forward: %v", err)
				}
			}
			b := newManager(t, net, "fd00::b", fwd, nil)
			if err := a.Connect(b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			if err := b.Connect(c.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			// Faults go up only after the pipes do: handshake-under-faults is
			// TestPipeIntegrityUnderCombinedFaults' job; this test aims the
			// injector at the vectored data path alone.
			net.SetFaultsBoth(b.LocalAddr(), c.LocalAddr(), netsim.FaultProfile{
				ReorderRate:     0.2,
				ReorderDelayMin: time.Millisecond,
				ReorderDelayMax: 3 * time.Millisecond,
				DuplicateRate:   0.15,
				CorruptRate:     0.15,
				JitterMax:       time.Millisecond,
			})

			const sends = 400
			hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 2}
			for i := 0; i < sends; i++ {
				if err := a.Send(b.LocalAddr(), &hdr, mkPayload(uint32(i))); err != nil {
					t.Fatal(err)
				}
			}
			delivered := waitQuiesce(t, 5*time.Second, 300*time.Millisecond, func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(got)
			})

			mu.Lock()
			defer mu.Unlock()
			if bad != 0 {
				t.Fatalf("%d corrupted payloads reached the handler", bad)
			}
			for seq, n := range got {
				if n != 1 {
					t.Fatalf("seq %d delivered %d times", seq, n)
				}
			}
			if delivered < sends*6/10 {
				t.Fatalf("only %d/%d payloads delivered", delivered, sends)
			}
			bs := b.Telemetry().Snapshot()
			if bs.Value("pipe_tx_batched_packets_total") == 0 || bs.Value("pipe_tx_batches_total") == 0 {
				t.Fatalf("forwarder never coalesced: %+v", bs)
			}
			st := net.Telemetry().Snapshot()
			if st.Value("netsim_reordered_total") == 0 || st.Value("netsim_duplicated_total") == 0 || st.Value("netsim_corrupted_total") == 0 {
				t.Fatalf("fault classes did not all fire: %+v", st)
			}
			if st.Value("netsim_batches_total") == 0 {
				t.Fatal("fabric saw no vectored batches")
			}
		})
	}
}
