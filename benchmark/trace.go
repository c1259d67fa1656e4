package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/lab"
	"interedge/internal/netsim"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// The traced run observes the system from outside, through the two hooks
// the code already offers and the benchmark's own calls:
//
//   - spans around the benchmark's send calls and verified deliveries;
//   - an egress tap on every transport the topology attaches
//     (lab.WithTransportWrap), stamping each sealed ILP datagram as a node
//     hands it to the fabric;
//   - a timestamping sn.Config.Trace hook on every SN (lab.WithSNConfig),
//     writing into a preallocated ring.
//
// Nothing carries a trace id on the wire, so a request's stamps are found
// by order: links are clean and FIFO, a sender's k-th packet on a link is
// the link's k-th stamp, and the j-th verified delivery at an endpoint is
// the j-th stamp on the link into it. A link whose stamp count differs
// from the packets the benchmark put on it fails the traced run.

var epoch = time.Now()

// nanos is the one clock of the benchmark: nanoseconds since start-up.
func nanos() int64 { return int64(time.Since(epoch)) }

// hookRingLen bounds SN trace events per traced phase; traced phases are
// count-capped (tracedPhaseOps) so the ring never wraps.
const hookRingLen = 1 << 18

// tracedPhaseOps caps the operations of one traced phase: the hook events
// of every operation (rx, decision, forward on each SN it crosses) must fit
// the ring.
const tracedPhaseOps = hookRingLen / 8

// keptSpansPerPhase is how many requests per phase are written out span by
// span; the per-span statistics cover every request.
const keptSpansPerPhase = 500

type hookEvent struct {
	t     int64
	src   wire.Addr
	point telemetry.TracePoint
}

type linkKey struct{ from, to wire.Addr }

// tap is the egress tap of one node's transport.
type tap struct {
	inner netsim.Transport
	tr    *tracer
	mu    sync.Mutex
	out   map[wire.Addr][]int64 // stamps per destination, in hand-off order
}

func (t *tap) LocalAddr() wire.Addr { return t.inner.LocalAddr() }

func (t *tap) stamp(dgs ...wire.Datagram) {
	if !t.tr.on.Load() {
		return
	}
	// The node's own receive queue, sampled whenever it sends: its depth
	// is what the next inbound datagram waits behind.
	if d := int64(len(t.inner.Receive())); d > t.tr.rxDepthMax.Load() {
		t.tr.rxDepthMax.Store(d)
	}
	now := nanos()
	t.mu.Lock()
	for i := range dgs {
		if len(dgs[i].Payload) > 0 && wire.FrameType(dgs[i].Payload[0]) == wire.FrameILP {
			t.out[dgs[i].Dst] = append(t.out[dgs[i].Dst], now)
		}
	}
	t.mu.Unlock()
}

func (t *tap) Send(dg wire.Datagram) error {
	t.stamp(dg)
	return t.inner.Send(dg)
}

// SendBatch forwards netsim.BatchSender so the pipe layer's egress
// coalescing still reaches the fabric as one batch.
func (t *tap) SendBatch(dgs []wire.Datagram) (int, error) {
	t.stamp(dgs...)
	return netsim.SendBatch(t.inner, dgs)
}

func (t *tap) Receive() <-chan wire.Datagram { return t.inner.Receive() }
func (t *tap) Close() error                  { return t.inner.Close() }

// RegisterTelemetry forwards telemetry.Registrable.
func (t *tap) RegisterTelemetry(r *telemetry.Registry) {
	if rt, ok := t.inner.(telemetry.Registrable); ok {
		rt.RegisterTelemetry(r)
	}
}

// opRec is what the benchmark itself knows about one request.
type opRec struct {
	flow     uint32
	t0, t1   int64  // send call entered / returned
	t6       int64  // verified delivery
	srcOrd   uint32 // order among the sends on its first link
	dstOrd   uint32 // order among the deliveries at its endpoint
	sent     bool
	received bool
}

// tracer collects one traced phase at a time.
type tracer struct {
	on atomic.Bool

	taps []*tap

	ring  []hookEvent
	ringN atomic.Int64

	rxDepthMax atomic.Int64 // deepest receive queue any tap saw

	flows    []*flow
	eps      []wire.Addr // endpoint index → address
	singleSN bool        // one SN: the hook's events can be chained per source

	baseOp uint64
	ops    []opRec
	srcN   map[linkKey]uint32
	epN    []atomic.Uint32

	phases []phaseTrace
}

func newTracer() *tracer {
	return &tracer{ring: make([]hookEvent, hookRingLen), ops: make([]opRec, tracedPhaseOps)}
}

func (tr *tracer) labOptions() []lab.Option {
	return []lab.Option{
		lab.WithTransportWrap(func(inner netsim.Transport) netsim.Transport {
			t := &tap{inner: inner, tr: tr, out: make(map[wire.Addr][]int64)}
			tr.taps = append(tr.taps, t)
			return t
		}),
		lab.WithSNConfig(func(c *sn.Config) {
			c.Trace = func(ev telemetry.PacketTrace) {
				if !tr.on.Load() {
					return
				}
				if i := tr.ringN.Add(1) - 1; i < hookRingLen {
					tr.ring[i] = hookEvent{t: nanos(), src: ev.Src, point: ev.Point}
				}
			}
		}),
	}
}

// describe tells the tracer the workload's flow table and endpoints.
func (tr *tracer) describe(flows []*flow, eps []wire.Addr, singleSN bool) {
	tr.flows, tr.eps, tr.singleSN = flows, eps, singleSN
	tr.epN = make([]atomic.Uint32, len(eps))
}

// begin starts collecting; nextOp is the id of the first traced operation.
func (tr *tracer) begin(nextOp uint64) {
	tr.baseOp = nextOp
	for i := range tr.ops {
		tr.ops[i] = opRec{}
	}
	tr.srcN = make(map[linkKey]uint32)
	for i := range tr.epN {
		tr.epN[i].Store(0)
	}
	tr.ringN.Store(0)
	for _, t := range tr.taps {
		t.mu.Lock()
		for k := range t.out {
			delete(t.out, k)
		}
		t.mu.Unlock()
	}
	tr.on.Store(true)
}

func (tr *tracer) onSend(op uint64, f *flow, t0, t1 int64) {
	if !tr.on.Load() || op < tr.baseOp || op-tr.baseOp >= uint64(len(tr.ops)) {
		return
	}
	r := &tr.ops[op-tr.baseOp]
	k := linkKey{f.src.Addr(), f.via}
	r.flow, r.t0, r.t1, r.srcOrd, r.sent = f.tag, t0, t1, tr.srcN[k], true
	tr.srcN[k]++
}

func (tr *tracer) onDeliver(op uint64, ep int, now int64) {
	if !tr.on.Load() || op < tr.baseOp || op-tr.baseOp >= uint64(len(tr.ops)) {
		return
	}
	r := &tr.ops[op-tr.baseOp]
	r.t6, r.dstOrd, r.received = now, tr.epN[ep].Add(1)-1, true
}

// span is one timed interval of one request.
type span struct {
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanStat is the distribution of one span name over a phase.
type spanStat struct {
	N      int     `json:"n"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	SelfNs float64 `json:"self_p50_ns"` // p50 of the span minus its children
}

// phaseTrace is one traced phase, reduced.
type phaseTrace struct {
	Phase    string              `json:"phase"`
	Requests int                 `json:"requests"`
	Stats    map[string]spanStat `json:"stats"`
	Spans    []span              `json:"spans"`
}

// spanTree is the fixed shape of a request. sn.rx, sn.decide and sn.serve
// exist only when one SN serves the workload.
var spanParents = map[string]string{
	"host.tx":      "request",
	"sn.residence": "request",
	"host.rx":      "request",
	"sn.rx":        "sn.residence",
	"sn.decide":    "sn.residence",
	"sn.serve":     "sn.residence",
}

// end stops collecting, chains every request's stamps and reduces the
// phase. It fails when a link's stamp count and the benchmark's own count
// of packets on that link disagree.
func (tr *tracer) end(phase string, nextOp uint64) (*phaseTrace, error) {
	tr.on.Store(false)
	n := int(nextOp - tr.baseOp)
	if n > len(tr.ops) {
		return nil, fmt.Errorf("trace %s: %d operations exceed the traced-phase cap %d", phase, n, len(tr.ops))
	}
	if tr.ringN.Load() > hookRingLen {
		return nil, fmt.Errorf("trace %s: SN hook ring overflowed", phase)
	}
	isEndpoint := make(map[wire.Addr]bool, len(tr.eps))
	for _, a := range tr.eps {
		isEndpoint[a] = true
	}
	links := make(map[linkKey][]int64)
	into := make(map[wire.Addr]linkKey) // endpoint address → the one link into it
	for _, t := range tr.taps {
		t.mu.Lock()
		for dst, stamps := range t.out {
			links[linkKey{t.LocalAddr(), dst}] = stamps
			if !isEndpoint[dst] || len(stamps) == 0 {
				continue
			}
			if _, dup := into[dst]; dup {
				t.mu.Unlock()
				return nil, fmt.Errorf("trace %s: endpoint %s is fed by two links", phase, dst)
			}
			into[dst] = linkKey{t.LocalAddr(), dst}
		}
		t.mu.Unlock()
	}
	in := correlateInput{
		ops:     tr.ops[:n],
		srcLink: func(r *opRec) linkKey { f := tr.flows[r.flow]; return linkKey{f.src.Addr(), f.via} },
		dstLink: func(r *opRec) (linkKey, bool) { k, ok := into[tr.eps[tr.flows[r.flow].dstEP]]; return k, ok },
		links:   links,
		sent:    tr.srcN,
	}
	in.delivered = make(map[linkKey]uint32)
	for ep := range tr.epN {
		if k, ok := into[tr.eps[ep]]; ok {
			in.delivered[k] += tr.epN[ep].Load()
		}
	}
	if tr.singleSN {
		in.hook = tr.ring[:tr.ringN.Load()]
	}
	pt, err := correlate(phase, tr.baseOp, in)
	if err != nil {
		return nil, err
	}
	tr.phases = append(tr.phases, *pt)
	return pt, nil
}

// correlateInput is everything the FIFO correlator works from; it holds no
// reference to a live topology so that it can be tested on its own.
type correlateInput struct {
	ops       []opRec
	srcLink   func(*opRec) linkKey
	dstLink   func(*opRec) (linkKey, bool)
	links     map[linkKey][]int64 // tap stamps per link, in hand-off order
	sent      map[linkKey]uint32  // packets the benchmark sent per first link
	delivered map[linkKey]uint32  // verified deliveries per last link
	hook      []hookEvent         // SN hook events in ring order (single-SN workloads)
}

// correlate chains stamps into spans. Tapped links must agree with the
// benchmark's own counts; an untapped first link (the fleet's shared mux)
// falls back to the send call's return time.
func correlate(phase string, baseOp uint64, in correlateInput) (*phaseTrace, error) {
	for k, want := range in.sent {
		if got, tapped := in.links[k]; tapped && uint32(len(got)) != want {
			return nil, fmt.Errorf("trace %s: link %s→%s carried %d sealed packets, the benchmark sent %d", phase, k.from, k.to, len(got), want)
		}
	}
	for k, want := range in.delivered {
		if got := in.links[k]; uint32(len(got)) != want {
			return nil, fmt.Errorf("trace %s: link %s→%s carried %d sealed packets, the benchmark verified %d deliveries", phase, k.from, k.to, len(got), want)
		}
	}
	// Per-source FIFO of the SN's hook: the k-th rx event from a source is
	// that source's k-th packet, and likewise for its decision events.
	type perSrc struct{ rx, decide []int64 }
	bySrc := make(map[wire.Addr]*perSrc)
	for i := range in.hook {
		ev := &in.hook[i]
		p := bySrc[ev.src]
		if p == nil {
			p = &perSrc{}
			bySrc[ev.src] = p
		}
		switch ev.point {
		case telemetry.TraceRx:
			p.rx = append(p.rx, ev.t)
		case telemetry.TraceFastPath, telemetry.TraceSlowPath, telemetry.TraceDrop:
			p.decide = append(p.decide, ev.t)
		}
	}
	if in.hook != nil {
		for k, want := range in.sent {
			p := bySrc[k.from]
			if p == nil || uint32(len(p.rx)) != want || uint32(len(p.decide)) != want {
				return nil, fmt.Errorf("trace %s: SN hook saw a different packet count from %s than the %d the benchmark sent", phase, k.from, want)
			}
		}
	}

	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	pt := &phaseTrace{Phase: phase, Stats: make(map[string]spanStat)}
	add := func(req uint64, keep bool, name string, s, e int64) float64 {
		d := float64(e - s)
		durs[name] = append(durs[name], d)
		if keep {
			pt.Spans = append(pt.Spans, span{Request: req, Name: name, Parent: spanParents[name], StartNs: s, EndNs: e})
		}
		return d
	}
	for i := range in.ops {
		r := &in.ops[i]
		if !r.sent || !r.received {
			continue
		}
		req := baseOp + uint64(i)
		keep := pt.Requests < keptSpansPerPhase
		pt.Requests++
		sk := in.srcLink(r)
		tE := r.t1
		if st, tapped := in.links[sk]; tapped {
			tE = st[r.srcOrd]
		}
		dk, ok := in.dstLink(r)
		if !ok {
			return nil, fmt.Errorf("trace %s: request %d was delivered over an untapped link", phase, req)
		}
		tX := in.links[dk][r.dstOrd]
		total := add(req, keep, "request", r.t0, r.t6)
		tx := add(req, keep, "host.tx", r.t0, tE)
		res := add(req, keep, "sn.residence", tE, tX)
		rx := add(req, keep, "host.rx", tX, r.t6)
		selfs["request"] = append(selfs["request"], total-tx-res-rx)
		if p := bySrc[sk.from]; p != nil {
			tRx, tDec := p.rx[r.srcOrd], p.decide[r.srcOrd]
			a := add(req, keep, "sn.rx", tE, tRx)
			b := add(req, keep, "sn.decide", tRx, tDec)
			c := add(req, keep, "sn.serve", tDec, tX)
			selfs["sn.residence"] = append(selfs["sn.residence"], res-a-b-c)
		}
	}
	for name, d := range durs {
		ts := reduceTimings(d)
		st := spanStat{N: ts.N, P50Ns: ts.P50, P99Ns: ts.P99, SelfNs: ts.P50}
		if s, ok := selfs[name]; ok {
			st.SelfNs = reduceTimings(s).P50
		}
		pt.Stats[name] = st
	}
	return pt, nil
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Env      envInfo      `json:"env"`
	Note     string       `json:"note"`
	Phases   []phaseTrace `json:"phases"`
}

func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	body, err := json.Marshal(traceFile{
		Workload: workload,
		Seed:     seed,
		Env:      currentEnv(),
		Note:     "times are ns since benchmark start; self time of a span is its duration minus its children; the first requests of each phase are listed span by span, stats cover all",
		Phases:   tr.phases,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}
