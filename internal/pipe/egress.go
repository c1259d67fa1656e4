package pipe

import (
	"fmt"

	"interedge/internal/netsim"
	"interedge/internal/psp"
	"interedge/internal/wire"
)

// txBatchCap is the per-destination egress coalescing cap: under
// backpressure a pipe's staged run flushes when it reaches this many
// packets. It matches the transports' vectored-syscall batch sizing.
const txBatchCap = 32

// destBatch accumulates staged packets bound for one pipe. The Datagram
// payloads alias the pooled sealBufs held alongside them; pkts and hdrLens
// describe the staged PSP region of each payload (everything after the frame
// byte) for the seal-at-flush pass. All are released when the batch flushes.
type destBatch struct {
	key     pipeKey
	p       *peer
	dgs     []wire.Datagram
	sbs     []*sealBuf
	pkts    [][]byte
	hdrLens []int
}

// egress is a per-worker coalescing Sender. Packets sent through it are
// staged per pipe (header and payload copied to their final wire offsets in
// pooled buffers, so callers may reuse their slices immediately) and handed
// to the transport as one batch, either when the owning worker's input
// drains (flushAll — the adaptive low-load path) or when a pipe reaches
// txBatchCap under backpressure (flushDest). Sealing is deferred to flush
// time: the whole pending run of a pipe is encrypted in place with one
// SealStaged pass — a single cipher-state fetch and one contiguous IV
// reservation — and the steady state allocates nothing.
//
// An egress belongs to exactly one worker goroutine and is not safe for
// concurrent use. Per-pipe FIFO plus in-order flushing preserves per-source
// order: one pipe maps to one worker, and that worker enqueues and flushes in
// arrival order.
type egress struct {
	e *Engine
	// local is the endpoint whose handler holds the egress right now: the
	// worker sets it before each delivery, so a send names its pipe by
	// destination alone, as Sender does.
	local   wire.Addr
	scratch psp.Scratch
	dests   map[pipeKey]*destBatch
	order   []*destBatch // flush order: first-enqueue order per drain cycle
	free    []*destBatch // recycled destBatch structs
}

func (e *Engine) newEgress() *egress {
	return &egress{e: e, dests: make(map[pipeKey]*destBatch)}
}

// SendHeaderBytes stages the packet (copying hdrBytes and payload to their
// wire offsets) and queues it for the next flush, which seals the whole
// run. A nil return means the packet was accepted for (possibly deferred)
// transmission; seal and transport failures at flush time surface as
// pipe_tx_flush_drops_total, matching how a NIC ring reports late drops.
func (eg *egress) SendHeaderBytes(dst wire.Addr, hdrBytes, payload []byte) error {
	key := pipeKey{local: eg.local, remote: dst}
	p := eg.e.peer(key)
	if p == nil {
		return fmt.Errorf("%w: %s", ErrNoPipe, dst)
	}
	db := eg.dests[key]
	if db == nil {
		if n := len(eg.free); n > 0 {
			db = eg.free[n-1]
			eg.free = eg.free[:n-1]
		} else {
			db = &destBatch{}
		}
		db.key, db.p = key, p
		eg.dests[key] = db
		eg.order = append(eg.order, db)
	} else if db.p != p {
		// The pipe re-established between enqueues: packets sealed under
		// the old keys flush first, then the batch restarts on the new peer.
		if err := eg.flushDest(db); err != nil {
			db.p = p
			return err
		}
		db.p = p
	}
	sb := eg.e.sealBufs.Get().(*sealBuf)
	size := 1 + psp.SealedSize(len(hdrBytes), len(payload))
	buf := sb.buf[:0]
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	buf[0] = byte(wire.FrameILP)
	psp.StageSeal(buf[1:], hdrBytes, payload)
	sb.buf = buf
	db.dgs = append(db.dgs, wire.Datagram{Src: key.local, Dst: dst, Payload: buf})
	db.sbs = append(db.sbs, sb)
	db.pkts = append(db.pkts, buf[1:])
	db.hdrLens = append(db.hdrLens, len(hdrBytes))
	if len(db.dgs) >= txBatchCap {
		return eg.flushDest(db)
	}
	return nil
}

// flushDest seals one pipe's staged queue in place with a single batch
// crypto pass, hands it to the transport as one batch, and releases the
// buffers. The destBatch stays registered for the rest of the drain cycle,
// ready to accumulate again.
func (eg *egress) flushDest(db *destBatch) error {
	if len(db.dgs) == 0 {
		return nil
	}
	e := eg.e
	if err := db.p.crypto.TX.SealStaged(&eg.scratch, db.pkts, db.hdrLens); err != nil {
		// A seal failure poisons the whole staged run (IVs are already
		// consumed); account every packet as a flush drop.
		e.txFlushDrops.Add(uint64(len(db.dgs)))
		db.release(e)
		return err
	}
	n, err := netsim.SendBatch(e.cfg.Transport, db.dgs)
	var bytes uint64
	for i := 0; i < n; i++ {
		bytes += uint64(len(db.dgs[i].Payload))
	}
	db.p.txPackets.Add(uint64(n))
	db.p.txBytes.Add(bytes)
	e.txBatches.Add(1)
	e.txBatchedPackets.Add(uint64(n))
	e.flushBatchSize.Observe(uint64(len(db.dgs)))
	if dropped := len(db.dgs) - n; dropped > 0 {
		e.txFlushDrops.Add(uint64(dropped))
	}
	// Transports must not retain the batch or its payloads once SendBatch
	// returns, so the seal buffers go straight back to the pool.
	db.release(e)
	return err
}

// release returns the batch's pooled buffers and resets its queues.
func (db *destBatch) release(e *Engine) {
	for i := range db.sbs {
		e.sealBufs.Put(db.sbs[i])
		db.sbs[i] = nil
		db.dgs[i] = wire.Datagram{}
		db.pkts[i] = nil
	}
	db.dgs = db.dgs[:0]
	db.sbs = db.sbs[:0]
	db.pkts = db.pkts[:0]
	db.hdrLens = db.hdrLens[:0]
}

// flushAll drains every pipe in first-enqueue order and resets the
// coalescer for the next cycle. Called by the worker the moment its input
// channel has nothing ready.
func (eg *egress) flushAll() {
	if len(eg.order) == 0 {
		return
	}
	for i, db := range eg.order {
		_ = eg.flushDest(db) // failures are accounted as TxFlushDrops
		delete(eg.dests, db.key)
		db.p = nil
		eg.free = append(eg.free, db)
		eg.order[i] = nil
	}
	eg.order = eg.order[:0]
}
