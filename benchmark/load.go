package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"interedge/internal/host"
	"interedge/internal/wire"
)

// ringLen bounds how many operations may be outstanding at once: send
// stamps and delivery marks live in rings indexed by operation id. Every
// closed-loop window is far below it; the open-loop phase stops offering
// load at half of it and reports the stall as generator lag.
const ringLen = 8192

// stallTimeout is how long the loop waits without a single delivery before
// it declares the outstanding operations lost.
const stallTimeout = 2 * time.Second

// flow is one sender→receiver stream of the workload. Header flows send a
// pre-encoded ILP header through Host.SendHeaderBytes and are received by a
// service handler on another endpoint; conn flows use the application API
// (Conn.Send / Conn.Receive) and are received by the generator itself.
type flow struct {
	tag   uint32
	dstEP int // endpoint index that must receive this flow's packets

	src  *host.Host
	via  wire.Addr
	hdr  []byte         // encoded header of the flow's steady connection
	svc  wire.ServiceID // for fresh-connection headers
	data []byte         // service data for fresh-connection headers
	// prepare, when set, runs before the first packet of a fresh
	// connection id (fastpath-forward installs the forwarding rule here).
	prepare func(id wire.ConnectionID)
	// cleanup, when set, runs once a fresh connection's packet is done:
	// the connection closes and its rules go, so that fresh connections do
	// not pile up in the decision caches over a run.
	cleanup func(id wire.ConnectionID)

	conn *host.Conn // conn flows only

	highest atomic.Uint64 // highest operation id delivered + 1 (reorder accounting)
}

// phaseSpec is one timed phase of a round.
type phaseSpec struct {
	name    string
	window  int     // operations in flight (closed loop)
	payload int     // payload bytes
	fresh   bool    // open a never-seen connection id per operation
	single  int     // >= 0: use only this flow; -1: the generator's picks
	rate    float64 // > 0: open loop at this many operations per second
}

// phaseResult is what one run of a phase measured.
type phaseResult struct {
	spec      phaseSpec
	delivered uint64
	bytes     uint64
	failed    uint64
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	lat       []float64 // ns, send call (or due time) to verified delivery
	rate      float64   // deliveries/s sustained in the faster quarter of the phase (blockRate)
	lag       []float64 // ns, open loop only: how late each send ran
	occupancy float64   // mean in-flight / window at the moments the loop blocked
}

// failures splits failed operations by cause.
type failures struct {
	corrupt   atomic.Uint64 // CRC mismatch or truncated
	duplicate atomic.Uint64 // delivered twice
	misrouted atomic.Uint64 // delivered to the wrong endpoint, or unknown flow
	late      atomic.Uint64 // arrived after being declared lost
	timedOut  atomic.Uint64 // never arrived
	sendErr   atomic.Uint64 // the send call failed
}

func (f *failures) total() uint64 {
	return f.corrupt.Load() + f.duplicate.Load() + f.misrouted.Load() +
		f.timedOut.Load() + f.sendErr.Load()
}

// loadgen is the load generator and the correctness gate: one goroutine
// sends, the system's own receive goroutines call deliver, and every
// packet is checked against the generator's record of what was sent.
type loadgen struct {
	gen   *generator
	flows []*flow
	host  *host.Host // conn flows: where fresh connections are opened

	tokens    chan struct{}       // one per verified delivery from a handler
	steadyRx  <-chan host.Message // conn flows: the steady connection's replies
	connRx    <-chan host.Message // the channel the loop reads replies from
	freshConn *host.Conn          // open fresh connection, closed on completion
	freshFlow *flow               // header flow with a fresh connection id outstanding
	freshID   wire.ConnectionID
	// pace, when set, runs before every send (fleet-churn backs off on the
	// shared mux's backlog here).
	pace       func()
	backlogMax int // deepest mux backlog pace saw

	nextOp    uint64
	nextConn  uint64 // fresh connection ids count up from here
	floor     atomic.Uint64
	sentNs    [ringLen]atomic.Int64
	sentOp    [ringLen]atomic.Uint64
	doneOp    [ringLen]atomic.Uint64
	txbuf     []byte
	hdrbuf    []byte
	samples   *sampleArrays
	latN      atomic.Int64 // deliveries of the current phase
	delivered atomic.Uint64
	bytes     atomic.Uint64
	reordered atomic.Uint64
	fail      failures

	tr *tracer // nil unless this is a traced run
}

// freshConnBase keeps fresh connection ids clear of the steady ones (flow
// tag + 1) and of the ids hosts allocate for themselves.
const freshConnBase = 1 << 32

// sampleArrays holds what the generator keeps per delivery of a phase; a
// phase that delivers more than they hold keeps the first ones.
type sampleArrays struct {
	lat []int64 // send call (or due time) to verified delivery, ns
	at  []int64 // when the delivery was verified, ns since start
}

func newSampleArrays(n int) *sampleArrays {
	return &sampleArrays{lat: make([]int64, n), at: make([]int64, n)}
}

func newLoadgen(gen *generator, samples *sampleArrays) *loadgen {
	return &loadgen{
		gen:      gen,
		tokens:   make(chan struct{}, ringLen), // one slot per outstanding operation, so handlers never block
		txbuf:    make([]byte, maxPayload),
		hdrbuf:   make([]byte, 0, 64),
		samples:  samples,
		nextConn: freshConnBase,
	}
}

// deliver verifies one received payload at endpoint ep. It is called from
// the system's receive goroutines (handler flows) or from the generator
// (conn flows, token false).
func (g *loadgen) deliver(ep int, payload []byte, token bool) bool {
	now := nanos()
	tag, op, ok := parsePayload(payload)
	if !ok {
		g.fail.corrupt.Add(1)
		return false
	}
	if int(tag) >= len(g.flows) || g.flows[tag].dstEP != ep {
		g.fail.misrouted.Add(1)
		return false
	}
	if op < g.floor.Load() {
		g.fail.late.Add(1)
		return false
	}
	slot := op % ringLen
	if g.sentOp[slot].Load() != op+1 || g.doneOp[slot].Swap(op+1) == op+1 {
		g.fail.duplicate.Add(1)
		return false
	}
	f := g.flows[tag]
	for {
		h := f.highest.Load()
		if op+1 <= h {
			g.reordered.Add(1)
			break
		}
		if f.highest.CompareAndSwap(h, op+1) {
			break
		}
	}
	if i := g.latN.Add(1) - 1; int(i) < len(g.samples.lat) {
		g.samples.lat[i], g.samples.at[i] = now-g.sentNs[slot].Load(), now
	}
	g.delivered.Add(1)
	g.bytes.Add(uint64(len(payload)))
	if g.tr != nil {
		g.tr.onDeliver(op, ep, now)
	}
	if token {
		g.tokens <- struct{}{}
	}
	return true
}

// sendOne sends the next operation on flow f. due >= 0 stamps the
// operation with its due time (open loop) instead of the send time.
func (g *loadgen) sendOne(f *flow, spec *phaseSpec, due int64) error {
	op := g.nextOp
	g.nextOp++
	buf := g.txbuf[:spec.payload]
	g.gen.fill(buf, f.tag, op)
	slot := op % ringLen
	g.sentOp[slot].Store(op + 1)
	if g.pace != nil {
		g.pace()
	}

	// A fresh connection's clock starts before it is opened: opening it is
	// part of what its first packet costs.
	t0 := nanos()
	if f.conn != nil {
		c := f.conn
		if spec.fresh {
			// One reply is expected; the default 256-message buffer would
			// make every open a 20 KB allocation and the phase a GC test.
			nc, err := g.host.NewConn(f.svc, host.WithBuffer(1))
			if err != nil {
				return err
			}
			c = nc
			// The reply is read from connRx before complete() closes the
			// connection.
			g.connRx, g.freshConn = nc.Receive(), nc
		} else {
			t0 = nanos()
		}
		g.sentNs[slot].Store(pickStamp(t0, due))
		err := c.Send(nil, buf)
		if g.tr != nil {
			g.tr.onSend(op, f, t0, nanos())
		}
		return err
	}

	hdr := f.hdr
	if spec.fresh {
		id := wire.ConnectionID(g.nextConn)
		g.nextConn++
		h := wire.ILPHeader{Service: f.svc, Conn: id, Data: f.data}
		g.hdrbuf = g.hdrbuf[:h.EncodedSize()]
		if _, err := h.SerializeTo(g.hdrbuf); err != nil {
			return err
		}
		hdr = g.hdrbuf
		if f.prepare != nil {
			f.prepare(id)
		}
		g.freshFlow, g.freshID = f, id
	} else {
		t0 = nanos()
	}
	g.sentNs[slot].Store(pickStamp(t0, due))
	err := f.src.SendHeaderBytes(f.via, hdr, buf)
	if g.tr != nil {
		g.tr.onSend(op, f, t0, nanos())
	}
	return err
}

func pickStamp(now, due int64) int64 {
	if due >= 0 {
		return due
	}
	return now
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runPhase runs one phase until dur has passed or count operations were
// sent, whichever comes first (0 disables a limit; the warm-up is
// count-only, timed phases dur-only, traced phases both), and returns what
// it measured.
func (g *loadgen) runPhase(spec phaseSpec, dur time.Duration, count uint64) (phaseResult, error) {
	if spec.payload < minPayload || spec.payload > maxPayload {
		return phaseResult{}, fmt.Errorf("phase %s: payload %d out of range", spec.name, spec.payload)
	}
	res := phaseResult{spec: spec}
	g.latN.Store(0)
	failed0 := g.fail.total()
	delivered0 := g.delivered.Load()
	bytes0 := g.bytes.Load()
	mallocs0 := mallocCount()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)

	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var (
		inflight  int
		sent      uint64
		occSum    float64
		occN      int
		stallFor  time.Duration
		lastSeen  = g.delivered.Load()
		lastDone  = start
		sending   = true
		interval  time.Duration
		openStart = nanos()
	)
	if spec.rate > 0 {
		interval = time.Duration(float64(time.Second) / spec.rate)
	}
	closeFresh := func() {
		if g.freshConn != nil {
			g.freshConn.Close()
			g.freshConn, g.connRx = nil, g.steadyRx
		}
		if g.freshFlow != nil {
			if g.freshFlow.cleanup != nil {
				g.freshFlow.cleanup(g.freshID)
			}
			g.freshFlow = nil
		}
	}
	complete := func() {
		inflight--
		lastDone = time.Now()
		closeFresh()
	}
	lose := func() {
		// Nothing arrived for stallTimeout: the outstanding operations
		// are lost. Anything of theirs that still arrives counts as late.
		g.fail.timedOut.Add(uint64(inflight))
		g.floor.Store(g.nextOp)
		inflight = 0
		for len(g.tokens) > 0 {
			<-g.tokens
		}
		closeFresh()
	}
	// onTick runs every 100 ms: no delivery for stallTimeout with
	// operations outstanding means they are lost.
	onTick := func() {
		if d := g.delivered.Load(); d != lastSeen || inflight == 0 {
			lastSeen, stallFor = d, 0
		} else if stallFor += 100 * time.Millisecond; stallFor >= stallTimeout {
			lose()
			stallFor = 0
		}
	}
	// drain takes every completion that is ready, without blocking.
	drain := func() {
		for inflight > 0 {
			select {
			case <-g.tokens:
				complete()
			case m, ok := <-g.connRx:
				if ok && g.deliver(0, m.Payload, false) {
					complete()
				}
			default:
				return
			}
		}
	}

	for {
		if sending {
			sending = (count == 0 || sent < count) && (dur == 0 || time.Now().Before(deadline))
		}
		// Offer load: open loop, whatever is due; closed loop, up to the
		// window.
		now := nanos()
		for sending {
			due := int64(-1)
			if spec.rate > 0 {
				if due = openStart + int64(sent)*int64(interval); due > now || inflight >= ringLen/2 {
					break
				}
				res.lag = append(res.lag, float64(now-due))
			} else if inflight >= spec.window {
				break
			}
			if err := g.sendOne(g.pickFlow(&spec), &spec, due); err != nil {
				g.fail.sendErr.Add(1)
			} else {
				inflight++
			}
			sent++
			sending = (count == 0 || sent < count) && (dur == 0 || sent&63 != 0 || time.Now().Before(deadline))
		}
		if !sending && inflight == 0 {
			break
		}

		// Collect completions.
		if spec.rate > 0 && sending {
			// Open loop: never wait for a completion; take what has
			// arrived and sleep a little toward the next due time.
			drain()
			time.Sleep(200 * time.Microsecond)
			select {
			case <-tick.C:
				onTick()
			default:
			}
			continue
		}
		occSum += float64(inflight)
		occN++
		select {
		case <-g.tokens:
			complete()
		case m, ok := <-g.connRx:
			if ok && g.deliver(0, m.Payload, false) {
				complete()
			}
		case <-tick.C:
			onTick()
		}
		drain()
	}

	res.wall = lastDone.Sub(start)
	if res.wall <= 0 {
		res.wall = time.Since(start)
	}
	res.cpu = cpuTime() - cpu0
	res.mallocs = mallocCount() - mallocs0
	res.delivered = g.delivered.Load() - delivered0
	res.bytes = g.bytes.Load() - bytes0
	res.failed = g.fail.total() - failed0
	n := min(int(g.latN.Load()), len(g.samples.lat))
	res.lat = make([]float64, n)
	for i := 0; i < n; i++ {
		res.lat[i] = float64(g.samples.lat[i])
	}
	res.rate = blockRate(g.samples.at[:n])
	if res.rate == 0 && res.wall > 0 {
		res.rate = float64(res.delivered) / res.wall.Seconds()
	}
	if occN > 0 && spec.window > 0 {
		res.occupancy = occSum / float64(occN) / float64(spec.window)
	}
	return res, nil
}

func (g *loadgen) pickFlow(spec *phaseSpec) *flow {
	if spec.single >= 0 {
		return g.flows[spec.single]
	}
	return g.flows[g.gen.pick()]
}
