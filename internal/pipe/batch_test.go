package pipe

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"interedge/internal/netsim"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// TestBatchHandlerMixedPeerRuns drives two senders into one receiver whose
// BatchHandler records every delivered run. Runs must be source-uniform
// (a batch with interleaved peers is split at every source boundary),
// per-source order must be preserved across runs, and nothing may be lost
// or duplicated.
func TestBatchHandlerMixedPeerRuns(t *testing.T) {
	net := netsim.NewNetwork()
	type run struct {
		src  wire.Addr
		seqs []uint32
	}
	var mu sync.Mutex
	var runs []run
	recv := newNode(t, net, "fd00::1", func(cfg *Config) {
		cfg.RxWorkers = 1 // one worker sees both sources in its batches
		cfg.Handler = nil
		cfg.BatchHandler = func(_ Sender, src wire.Addr, pkts []RxPacket) {
			r := run{src: src}
			for i := range pkts {
				if len(pkts[i].Payload) != 4 {
					t.Errorf("payload len %d", len(pkts[i].Payload))
					continue
				}
				r.seqs = append(r.seqs, binary.BigEndian.Uint32(pkts[i].Payload))
			}
			mu.Lock()
			runs = append(runs, r)
			mu.Unlock()
		}
	})
	b := newNode(t, net, "fd00::2")
	c := newNode(t, net, "fd00::3")

	const perSender = 100
	for _, sender := range []*node{b, c} {
		if err := sender.mgr.Connect(recv.addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perSender; i++ {
		var p [4]byte
		binary.BigEndian.PutUint32(p[:], uint32(i))
		hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 7}
		if err := b.mgr.Send(recv.addr, &hdr, p[:]); err != nil {
			t.Fatal(err)
		}
		if err := c.mgr.Send(recv.addr, &hdr, p[:]); err != nil {
			t.Fatal(err)
		}
	}

	bySrc := map[wire.Addr][]uint32{}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		bySrc = map[wire.Addr][]uint32{}
		for _, r := range runs {
			bySrc[r.src] = append(bySrc[r.src], r.seqs...)
		}
		total := len(bySrc[b.addr]) + len(bySrc[c.addr])
		mu.Unlock()
		if total == 2*perSender {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: got %d/%d packets", total, 2*perSender)
		}
		time.Sleep(time.Millisecond)
	}
	for _, sender := range []*node{b, c} {
		seqs := bySrc[sender.addr]
		if len(seqs) != perSender {
			t.Fatalf("source %s: %d packets, want %d", sender.addr, len(seqs), perSender)
		}
		for i, seq := range seqs {
			if seq != uint32(i) {
				t.Fatalf("source %s: out of order at %d: got seq %d", sender.addr, i, seq)
			}
		}
	}
}

// TestBatchHandlerNeverSeesProbes enables keepalives and checks that
// liveness probes and acks are consumed by the manager, never delivered in
// a batch, while real packets still flow.
func TestBatchHandlerNeverSeesProbes(t *testing.T) {
	net := netsim.NewNetwork()
	var mu sync.Mutex
	got := 0
	recv := newNode(t, net, "fd00::1", func(cfg *Config) {
		cfg.KeepaliveInterval = 20 * time.Millisecond
		cfg.Handler = nil
		cfg.BatchHandler = func(_ Sender, _ wire.Addr, pkts []RxPacket) {
			for i := range pkts {
				if pkts[i].Hdr.Service == wire.SvcPipeProbe || pkts[i].Hdr.Service == wire.SvcPipeProbeAck {
					t.Errorf("probe service %v leaked into batch", pkts[i].Hdr.Service)
				}
			}
			mu.Lock()
			got += len(pkts)
			mu.Unlock()
		}
	})
	b := newNode(t, net, "fd00::2", func(cfg *Config) {
		cfg.KeepaliveInterval = 20 * time.Millisecond
	})
	if err := b.mgr.Connect(recv.addr); err != nil {
		t.Fatal(err)
	}
	// Let several keepalive intervals elapse with sporadic real traffic.
	for i := 0; i < 5; i++ {
		hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: wire.ConnectionID(i)}
		if err := b.mgr.Send(recv.addr, &hdr, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: delivered %d/5", n)
		}
		time.Sleep(time.Millisecond)
	}
	if recv.mgr.Telemetry().Snapshot().Value("pipe_keepalives_rcvd_total") == 0 && b.mgr.Telemetry().Snapshot().Value("pipe_keepalives_rcvd_total") == 0 {
		t.Fatal("no keepalives exchanged; probe suppression not exercised")
	}
}

// TestRxOpenBatchSizeObserved checks the pipe_rx_open_batch_size histogram
// records every delivered run.
func TestRxOpenBatchSizeObserved(t *testing.T) {
	net := netsim.NewNetwork()
	recv := newNode(t, net, "fd00::1")
	b := newNode(t, net, "fd00::2")
	if err := b.mgr.Connect(recv.addr); err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		hdr := wire.ILPHeader{Service: wire.SvcEcho, Conn: 1}
		if err := b.mgr.Send(recv.addr, &hdr, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-recv.rx:
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout after %d packets", i)
		}
	}
	hist := recv.mgr.Telemetry().Histogram("pipe_rx_open_batch_size", telemetry.BatchBuckets)
	if hist.Count() == 0 {
		t.Fatal("pipe_rx_open_batch_size recorded no observations")
	}
}
