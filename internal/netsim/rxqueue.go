package netsim

import (
	"sync/atomic"

	"interedge/internal/wire"
)

// ShardedReceiver is the multi-queue receive extension of Transport. All
// three built-in transports (the sim fabric, Mux and UDP) implement it: the
// receive side becomes one queue per consumer, so each of a pipe engine's RX
// workers ranges over its own queue and nothing sits between the transport
// and the worker that owns a datagram's pipe.
type ShardedReceiver interface {
	// ReceiveShards splits the receive side into n queues and returns them.
	// The datagram from src to dst waits on queue wire.RxShard(src, dst, n),
	// so one pipe's traffic stays on one queue, in order. The transport's
	// depth is divided among the queues, not multiplied, and what is already
	// queued moves to its queue. Call it once, before reading any queue;
	// Receive then returns the first. Close closes every queue.
	ReceiveShards(n int) []<-chan wire.Datagram
}

// rxQueues is a transport's receive side: one queue of the transport's whole
// depth until split divides it into n. The owner serializes split and close
// against every sender with a lock of its own; readers (Receive, gauges,
// Network.Settled) load the queue set without one.
type rxQueues struct {
	depth  int
	qs     atomic.Pointer[[]chan wire.Datagram]
	closed bool // guarded by the owner's lock
}

func newRxQueues(depth int) *rxQueues {
	r := &rxQueues{depth: depth}
	qs := []chan wire.Datagram{make(chan wire.Datagram, depth)}
	r.qs.Store(&qs)
	return r
}

func (r *rxQueues) load() []chan wire.Datagram { return *r.qs.Load() }

// first is the queue Receive returns.
func (r *rxQueues) first() <-chan wire.Datagram { return r.load()[0] }

// queueFor returns the queue the datagram from src to dst waits on.
func queueFor(qs []chan wire.Datagram, src, dst wire.Addr) chan wire.Datagram {
	return qs[wire.RxShard(src, dst, len(qs))]
}

// split replaces the queues with n shards of depth/n (rounded up) and moves
// whatever is queued onto its shard; it returns how many queued datagrams a
// full shard had to drop. A closed receive side is left as it is. The
// caller holds the lock that excludes every sender.
func (r *rxQueues) split(n int) (dropped int) {
	old := r.load()
	if n = max(n, 1); n == len(old) || r.closed {
		return 0
	}
	per := (r.depth + n - 1) / n
	qs := make([]chan wire.Datagram, n)
	for i := range qs {
		qs[i] = make(chan wire.Datagram, per)
	}
	for _, q := range old {
		for len(q) > 0 {
			dg := <-q
			select {
			case queueFor(qs, dg.Src, dg.Dst) <- dg:
			default:
				dropped++
				wire.RxRelease(dg.Payload)
			}
		}
	}
	r.qs.Store(&qs)
	return dropped
}

// shards returns the queues, receive-only.
func (r *rxQueues) shards() []<-chan wire.Datagram {
	qs := r.load()
	out := make([]<-chan wire.Datagram, len(qs))
	for i, q := range qs {
		out[i] = q
	}
	return out
}

// close closes every queue, once. The caller holds the lock that excludes
// every sender.
func (r *rxQueues) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, q := range r.load() {
		close(q)
	}
}

// backlog is the number of datagrams waiting across every queue.
func (r *rxQueues) backlog() int {
	n := 0
	for _, q := range r.load() {
		n += len(q)
	}
	return n
}

// capacity is the depth of every queue together.
func (r *rxQueues) capacity() int {
	n := 0
	for _, q := range r.load() {
		n += cap(q)
	}
	return n
}

// deepest is the backlog of the fullest queue: a hot shard that drops while
// the total still looks low.
func (r *rxQueues) deepest() int {
	n := 0
	for _, q := range r.load() {
		n = max(n, len(q))
	}
	return n
}
