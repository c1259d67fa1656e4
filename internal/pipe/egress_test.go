package pipe

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"interedge/internal/handshake"
	"interedge/internal/netsim"
	"interedge/internal/wire"
)

// recordingBatchTransport wraps a sim transport and records how egress
// hands it traffic: per-datagram Sends vs vectored batch sizes.
type recordingBatchTransport struct {
	netsim.Transport
	mu      sync.Mutex
	sends   int
	batches []int
}

func (r *recordingBatchTransport) Send(dg wire.Datagram) error {
	r.mu.Lock()
	r.sends++
	r.mu.Unlock()
	return r.Transport.Send(dg)
}

func (r *recordingBatchTransport) SendBatch(dgs []wire.Datagram) (int, error) {
	r.mu.Lock()
	r.batches = append(r.batches, len(dgs))
	r.mu.Unlock()
	return netsim.SendBatch(r.Transport, dgs)
}

func (r *recordingBatchTransport) snapshot() (sends int, batches []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sends, append([]int(nil), r.batches...)
}

// TestEgressCapTriggeredFlush drives a worker egress by hand: packets
// accumulate per destination until txBatchCap forces a flush, and flushAll
// drains the remainder.
func TestEgressCapTriggeredFlush(t *testing.T) {
	net := netsim.NewNetwork()
	tr, err := net.Attach(wire.MustAddr("fd00::1"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBatchTransport{Transport: tr}
	id, err := handshake.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Transport: rec, Identity: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b := newNode(t, net, "fd00::2")
	if err := a.Connect(b.addr); err != nil {
		t.Fatal(err)
	}

	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
	enc, err := hdr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eg := a.eng.newEgress()
	eg.local = a.LocalAddr()
	for i := 0; i < txBatchCap-1; i++ {
		if err := eg.SendHeaderBytes(b.addr, enc, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if _, batches := rec.snapshot(); len(batches) != 0 {
		t.Fatalf("batches before cap = %v, want none", batches)
	}
	if got := eg.pending(); got != txBatchCap-1 {
		t.Fatalf("pending = %d, want %d", got, txBatchCap-1)
	}
	// The packet that reaches the cap must flush the whole run immediately.
	if err := eg.SendHeaderBytes(b.addr, enc, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if _, batches := rec.snapshot(); len(batches) != 1 || batches[0] != txBatchCap {
		t.Fatalf("batches after cap = %v, want [%d]", batches, txBatchCap)
	}
	if got := eg.pending(); got != 0 {
		t.Fatalf("pending after cap flush = %d, want 0", got)
	}
	// Two more, then a drain flush.
	for i := 0; i < 2; i++ {
		if err := eg.SendHeaderBytes(b.addr, enc, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	eg.flushAll()
	if _, batches := rec.snapshot(); len(batches) != 2 || batches[1] != 2 {
		t.Fatalf("batches after drain = %v, want [%d 2]", batches, txBatchCap)
	}
	st := a.Telemetry().Snapshot()
	if st.Value("pipe_tx_batches_total") != 2 || st.Value("pipe_tx_batched_packets_total") != txBatchCap+2 || st.Value("pipe_tx_flush_drops_total") != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEgressImmediateFlushAtLowLoad sends one packet through a forwarding
// node whose coalescing cap is far away: the adaptive policy must flush the
// moment the worker's input drains, so the packet arrives promptly instead
// of waiting for a full batch.
func TestEgressImmediateFlushAtLowLoad(t *testing.T) {
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	c := newNode(t, net, "fd00::3")
	var fwd *Manager
	b := newNode(t, net, "fd00::2", func(cfg *Config) {
		cfg.Handler = func(tx Sender, src wire.Addr, hdr wire.ILPHeader, hdrRaw, payload []byte) {
			if err := tx.SendHeaderBytes(c.addr, hdrRaw, payload); err != nil {
				t.Errorf("forward: %v", err)
			}
		}
	})
	fwd = b.mgr
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	if err := fwd.Connect(c.addr); err != nil {
		t.Fatal(err)
	}

	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 7}
	if err := a.mgr.Send(b.addr, &hdr, []byte("lone packet")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-c.rx:
		if string(got.payload) != "lone packet" || got.src != b.addr {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("single packet stuck in coalescing queue: adaptive flush broken")
	}
	// The flush counts the packet once the transport has taken it, which
	// can be after c has it.
	waitFor(t, "the flush counted", func() bool { return fwd.Telemetry().Snapshot().Value("pipe_tx_batched_packets_total") != 0 })
	st := fwd.Telemetry().Snapshot()
	if st.Value("pipe_tx_batched_packets_total") != 1 {
		t.Fatalf("pipe_tx_batched_packets_total = %v, want 1", st.Value("pipe_tx_batched_packets_total"))
	}
}

// TestEgressPerSourceOrderingAcrossBatches pushes a stream several times
// the coalescing cap through a forwarding node, so the stream spans many
// batch flushes, and asserts the far side still sees it in order.
func TestEgressPerSourceOrderingAcrossBatches(t *testing.T) {
	const count = 200
	net := netsim.NewNetwork()
	a := newNode(t, net, "fd00::1")
	c := newNode(t, net, "fd00::3")
	var fwd *Manager
	b := newNode(t, net, "fd00::2", func(cfg *Config) {
		cfg.Handler = func(tx Sender, src wire.Addr, hdr wire.ILPHeader, hdrRaw, payload []byte) {
			if err := tx.SendHeaderBytes(c.addr, hdrRaw, payload); err != nil {
				t.Errorf("forward: %v", err)
			}
		}
	})
	fwd = b.mgr
	if err := a.mgr.Connect(b.addr); err != nil {
		t.Fatal(err)
	}
	if err := fwd.Connect(c.addr); err != nil {
		t.Fatal(err)
	}

	hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 9}
	seq := make([]byte, 8)
	for i := 0; i < count; i++ {
		binary.BigEndian.PutUint64(seq, uint64(i))
		if err := a.mgr.Send(b.addr, &hdr, seq); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		select {
		case got := <-c.rx:
			if v := binary.BigEndian.Uint64(got.payload); v != uint64(i) {
				t.Fatalf("packet %d arrived with sequence %d: order broken across batches", i, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at packet %d/%d", i, count)
		}
	}
	waitFor(t, "the last flush counted", func() bool { return fwd.Telemetry().Snapshot().Value("pipe_tx_batched_packets_total") >= count })
	st := fwd.Telemetry().Snapshot()
	if st.Value("pipe_tx_batched_packets_total") != count {
		t.Fatalf("pipe_tx_batched_packets_total = %v, want %v", st.Value("pipe_tx_batched_packets_total"), count)
	}
	if st.Value("pipe_tx_batches_total") == 0 || st.Value("pipe_tx_batches_total") > count {
		t.Fatalf("pipe_tx_batches_total = %v, want within (0, %v]", st.Value("pipe_tx_batches_total"), count)
	}
}

// pending reports how many sealed packets are queued but not yet flushed.
func (eg *egress) pending() int {
	n := 0
	for _, db := range eg.order {
		n += len(db.dgs)
	}
	return n
}
