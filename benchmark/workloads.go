package main

import (
	"fmt"
	"math/rand"
	"time"

	"interedge/internal/edomain"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/netsim"
	"interedge/internal/services/echo"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// sizes scales a run. The full sizes are what BENCHMARK.json's numbers are
// measured at; smoke sizes keep every code path but finish in a second.
type sizes struct {
	fastFlows     int    // fastpath-forward connection ids
	mixFlows      int    // interedomain-mix flows
	mixCache      int    // interedomain-mix decision-cache entries per SN
	mixHostsPerEd int    // interedomain-mix hosts per edomain
	fleetSNs      int    // fleet-churn service nodes
	fleetHosts    int    // fleet-churn lite hosts in the data ring
	churnHosts    int    // fleet-churn extra lite hosts whose pipes the churner rekeys
	warmup        uint64 // fixed-count warm-up operations
	publishEvery  uint64 // fleet-churn: deliveries per lookup republish
	redialEvery   uint64 // fleet-churn: deliveries per pipe redial
	setups        int    // how many times set-up is measured per run, at least
	maxSetups     int    // and at most, when set-ups are quick
	latCap        int    // latency samples kept per phase
}

var fullSizes = sizes{
	fastFlows:     64,
	mixFlows:      8192,
	mixCache:      2048,
	mixHostsPerEd: 16,
	fleetSNs:      4,
	fleetHosts:    8192,
	churnHosts:    64,
	warmup:        20000,
	publishEvery:  1024,
	redialEvery:   2048,
	setups:        3,
	maxSetups:     9,
	latCap:        1 << 19,
}

var smokeSizes = sizes{
	fastFlows:     8,
	mixFlows:      256,
	mixCache:      64,
	mixHostsPerEd: 4,
	fleetSNs:      2,
	fleetHosts:    64,
	churnHosts:    8,
	warmup:        200,
	publishEvery:  128,
	redialEvery:   512,
	setups:        1,
	maxSetups:     1,
	latCap:        1 << 14,
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name      string
	why       string
	small     int     // smallest payload of the workload
	pacedRate float64 // operations/s of the open-loop diagnostic phase
	setup     func(env *runEnv) (*instance, error)
}

var workloads = []workloadDef{
	{
		name:  "fastpath-forward",
		why:   "bare forwarding at the smallest packet: per-packet cost of psp, sn/cache, pipe batching and netsim is the whole story; modules, lookup and handshake are bypassed",
		small: 64, pacedRate: 100000,
		setup: setupFastpath,
	},
	{
		name:  "slowpath-echo",
		why:   "every packet misses the decision cache and crosses the module transport: module dispatch and the host stack dominate, the fast path is bypassed",
		small: 256, pacedRate: 20000,
		setup: setupEcho,
	},
	{
		name:  "interedomain-mix",
		why:   "zipf flows over a working set 4x the decision cache, half of them across the peering gateway chain: the only place lookup, rescache, peering and cache eviction do real work",
		small: 256, pacedRate: 20000,
		setup: setupMix,
	},
	{
		name:  "fleet-churn",
		why:   "the shared pipe.Engine path of the million-host lab with lookup republishes and pipe rekeys beside the reads: a read-side gain that costs writes shows here",
		small: 256, pacedRate: 20000,
		setup: setupFleet,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runEnv is what a set-up needs to know about the run it belongs to.
type runEnv struct {
	seed int64
	sz   sizes
	tr   *tracer // nil unless traced
	// samples is the load generator's per-delivery arrays. A run's set-ups
	// share one pair, allocated before the first: megabytes of the
	// benchmark's own are then neither set-up time nor heap per host.
	samples *sampleArrays
}

// loadgen returns the set-up's load generator.
func (e *runEnv) loadgen(gen *generator) *loadgen {
	if e.samples == nil {
		e.samples = newSampleArrays(e.sz.latCap)
	}
	g := newLoadgen(gen, e.samples)
	g.tr = e.tr
	return g
}

func (e *runEnv) topoOptions(extra ...lab.Option) []lab.Option {
	opts := []lab.Option{lab.WithNetwork(netsim.NewNetwork(netsim.WithSeed(e.seed)))}
	opts = append(opts, extra...)
	if e.tr != nil {
		opts = append(opts, e.tr.labOptions()...)
	}
	return opts
}

// instance is one built, warmed-up workload ready for its timed phases.
type instance struct {
	topo      *lab.Topology
	g         *loadgen
	fleet     *lab.Fleet
	churn     *churner
	phases    []phaseSpec   // the timed phases of one round
	hosts     int           // endpoints holding per-host state
	pipes     int           // host pipes established during set-up
	connect   time.Duration // time the establishment wave took
	cacheSize int           // per-SN decision-cache capacity
	// unclaimed sums the packets the hosts could match to no connection or
	// handler.
	unclaimed func() uint64
	closed    bool
	// regs returns the named registries whose counters the per-layer rows
	// read.
	regs func() map[string]telemetry.Snapshot
}

// defaultCacheSize is sn.Config's decision-cache capacity when a workload
// does not set one.
const defaultCacheSize = 65536

func sumUnclaimed(hs []*host.Host) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, h := range hs {
			n += h.UnclaimedPackets()
		}
		return n
	}
}

// close tears the workload down; a second call does nothing.
func (in *instance) close() {
	if in.closed {
		return
	}
	in.closed = true
	if in.churn != nil {
		in.churn.stop()
	}
	in.topo.Close()
}

// phasesFor is the round every workload runs: window 64 at the smallest
// payload, window 64 at 1024 B, one in flight, and one in flight on a
// fresh connection id per packet. warm is the flow the one-in-flight
// phases use.
func phasesFor(small, warm int) []phaseSpec {
	return []phaseSpec{
		{name: "w64", window: 64, payload: small, single: -1},
		{name: "w64-1024", window: 64, payload: 1024, single: -1},
		{name: "one", window: 1, payload: small, single: warm},
		{name: "first", window: 1, payload: small, single: warm, fresh: true},
	}
}

func warmUp(g *loadgen, small int, n uint64) error {
	res, err := g.runPhase(phaseSpec{name: "warmup", window: 64, payload: small, single: -1}, 0, n)
	if err != nil {
		return err
	}
	if res.failed > 0 || res.delivered != n {
		return fmt.Errorf("warm-up: %d of %d delivered, %d failed", res.delivered, n, res.failed)
	}
	return nil
}

// encodeHeader pre-encodes a flow's ILP header, as a fleet driver would.
func encodeHeader(svc wire.ServiceID, conn int, data []byte) ([]byte, error) {
	return (&wire.ILPHeader{Service: svc, Conn: wire.ConnectionID(conn), Data: data}).Encode()
}

func snRegs(prefix string, nodes []*sn.SN, out map[string]telemetry.Snapshot) {
	for i, n := range nodes {
		out[fmt.Sprintf("%s/sn%d", prefix, i)] = n.Telemetry().Snapshot()
	}
}

// --- fastpath-forward ---------------------------------------------------

func setupFastpath(env *runEnv) (*instance, error) {
	topo := lab.New(env.topoOptions()...)
	ed, err := topo.AddEdomain("edge", 1, nil)
	if err != nil {
		return nil, err
	}
	node := ed.SNs[0]
	gen := newGenerator(env.seed, env.sz.fastFlows, 1<<12, pickShuffled, 0)
	g := env.loadgen(gen)
	in := &instance{topo: topo, g: g, hosts: 4, phases: phasesFor(64, 0), cacheSize: defaultCacheSize}

	// Two ingress and two egress endpoints; ingress i feeds egress i so
	// each ingress/egress pair is one FIFO for the traced run.
	var hs [4]*host.Host
	t0 := time.Now()
	for i := range hs {
		if hs[i], err = topo.NewHost(ed, 0); err != nil {
			return nil, err
		}
	}
	in.connect, in.pipes, in.unclaimed = time.Since(t0), len(hs), sumUnclaimed(hs[:])
	for p := 0; p < 2; p++ {
		ep := p
		hs[2+p].OnService(wire.SvcNone, func(m host.Message) { g.deliver(ep, m.Payload, true) })
	}
	for i := 0; i < env.sz.fastFlows; i++ {
		p := i % 2
		src, dst := hs[p], hs[2+p]
		hdr, err := encodeHeader(wire.SvcNone, i+1, nil)
		if err != nil {
			return nil, err
		}
		action := cache.Action{Forward: []wire.Addr{dst.Addr()}}
		node.Cache().Add(wire.FlowKey{Src: src.Addr(), Service: wire.SvcNone, Conn: wire.ConnectionID(i + 1)}, action)
		g.flows = append(g.flows, &flow{
			tag: uint32(i), dstEP: p, src: src, via: node.Addr(), hdr: hdr, svc: wire.SvcNone,
			// Bare forwarding has no module to decide a new connection,
			// so its "first packet" is the control plane installing the
			// rule and the packet that then hits it.
			prepare: func(id wire.ConnectionID) {
				node.Cache().Add(wire.FlowKey{Src: src.Addr(), Service: wire.SvcNone, Conn: id}, action)
			},
			cleanup: func(id wire.ConnectionID) {
				node.Cache().Invalidate(wire.FlowKey{Src: src.Addr(), Service: wire.SvcNone, Conn: id})
			},
		})
	}
	if env.tr != nil {
		env.tr.describe(g.flows, []wire.Addr{hs[2].Addr(), hs[3].Addr()}, true)
	}
	in.regs = func() map[string]telemetry.Snapshot {
		out := map[string]telemetry.Snapshot{"fabric": topo.Net.Telemetry().Snapshot()}
		snRegs("edge", ed.SNs, out)
		for i, h := range hs {
			out[fmt.Sprintf("host%d", i)] = h.Pipes().Telemetry().Snapshot()
		}
		return out
	}
	return in, warmUp(g, 64, env.sz.warmup)
}

// --- slowpath-echo ------------------------------------------------------

func setupEcho(env *runEnv) (*instance, error) {
	topo := lab.New(env.topoOptions()...)
	ed, err := topo.AddEdomain("edge", 1, func(node *sn.SN, _ *lab.Edomain) error {
		return node.Register(echo.New()) // default module transport
	})
	if err != nil {
		return nil, err
	}
	gen := newGenerator(env.seed, 1, 1<<8, pickShuffled, 0)
	g := env.loadgen(gen)
	in := &instance{topo: topo, g: g, hosts: 1, phases: phasesFor(256, 0), cacheSize: defaultCacheSize}

	t0 := time.Now()
	h, err := topo.NewHost(ed, 0)
	if err != nil {
		return nil, err
	}
	in.connect, in.pipes, in.unclaimed = time.Since(t0), 1, sumUnclaimed([]*host.Host{h})
	conn, err := h.NewConn(wire.SvcEcho)
	if err != nil {
		return nil, err
	}
	g.host, g.steadyRx, g.connRx = h, conn.Receive(), conn.Receive()
	g.flows = []*flow{{tag: 0, dstEP: 0, src: h, via: ed.SNs[0].Addr(), svc: wire.SvcEcho, conn: conn}}
	if env.tr != nil {
		env.tr.describe(g.flows, []wire.Addr{h.Addr()}, true)
	}
	in.regs = func() map[string]telemetry.Snapshot {
		out := map[string]telemetry.Snapshot{
			"fabric": topo.Net.Telemetry().Snapshot(),
			"host0":  h.Pipes().Telemetry().Snapshot(),
		}
		snRegs("edge", ed.SNs, out)
		return out
	}
	return in, warmUp(g, 256, env.sz.warmup)
}

// --- interedomain-mix ---------------------------------------------------

func setupMix(env *runEnv) (*instance, error) {
	cacheSize := env.sz.mixCache
	topo := lab.New(env.topoOptions(lab.WithSNConfig(func(c *sn.Config) { c.CacheSize = cacheSize }))...)
	withIPFwd := func(node *sn.SN, ed *lab.Edomain) error {
		return node.Register(ipfwd.New(topo.NewNodeResolver(ed, node), topo.Fabric))
	}
	var eds [2]*lab.Edomain
	var err error
	for i, id := range []string{"ed-a", "ed-b"} {
		if eds[i], err = topo.AddEdomain(edomain.ID(id), 2, withIPFwd); err != nil {
			return nil, err
		}
	}
	if err := topo.Mesh(); err != nil {
		return nil, err
	}
	per := env.sz.mixHostsPerEd
	gen := newGenerator(env.seed, env.sz.mixFlows, 1<<16, pickZipf, 1.1)
	g := env.loadgen(gen)
	in := &instance{topo: topo, g: g, hosts: 2 * per, phases: phasesFor(256, warmCrossFlow(gen)), cacheSize: cacheSize}

	hs := make([]*host.Host, 0, 2*per)
	firstHop := make([]wire.Addr, 0, 2*per)
	t0 := time.Now()
	for e := 0; e < 2; e++ {
		for k := 0; k < per; k++ {
			h, err := topo.NewHost(eds[e], k%2)
			if err != nil {
				return nil, err
			}
			ep := len(hs)
			h.OnService(wire.SvcIPFwd, func(m host.Message) { g.deliver(ep, m.Payload, true) })
			hs = append(hs, h)
			firstHop = append(firstHop, eds[e].SNs[k%2].Addr())
		}
	}
	in.connect, in.pipes, in.unclaimed = time.Since(t0), len(hs), sumUnclaimed(hs)

	// Which hosts a flow joins is drawn from the seed; its path shape is
	// its class (tag mod zipfClasses): bit 0 set keeps it inside one
	// edomain, bits 1 and 2 are the SN index of its source and destination
	// host. Class 6 is the full gateway chain (non-gateway SN → gateway →
	// gateway → non-gateway SN).
	rng := rand.New(rand.NewSource(env.seed ^ 0x6d6978))
	eps := make([]wire.Addr, len(hs))
	for i, h := range hs {
		eps[i] = h.Addr()
	}
	pickHost := func(ed, snIdx, not int) int {
		for {
			if h := ed*per + 2*rng.Intn(per/2) + snIdx; h != not {
				return h
			}
		}
	}
	for i := 0; i < env.sz.mixFlows; i++ {
		class := i % zipfClasses
		srcEd := rng.Intn(2)
		dstEd := 1 - srcEd
		if class&1 == 1 {
			dstEd = srcEd
		}
		src := pickHost(srcEd, class>>1&1, -1)
		dst := pickHost(dstEd, class>>2&1, src)
		data := ipfwd.DestData(hs[dst].Addr())
		hdr, err := encodeHeader(wire.SvcIPFwd, i+1, data)
		if err != nil {
			return nil, err
		}
		g.flows = append(g.flows, &flow{
			tag: uint32(i), dstEP: dst, src: hs[src], via: firstHop[src], hdr: hdr, svc: wire.SvcIPFwd, data: data,
		})
	}
	if env.tr != nil {
		env.tr.describe(g.flows, eps, false)
	}
	in.regs = func() map[string]telemetry.Snapshot {
		out := map[string]telemetry.Snapshot{
			"fabric": topo.Net.Telemetry().Snapshot(),
		}
		snRegs("ed-a", eds[0].SNs, out)
		snRegs("ed-b", eds[1].SNs, out)
		for i, h := range hs {
			out[fmt.Sprintf("host%d", i)] = h.Pipes().Telemetry().Snapshot()
		}
		return out
	}
	return in, warmUp(g, 256, env.sz.warmup)
}

// warmCrossFlow returns the hottest flow that crosses the full gateway
// chain (class 6): a flow the warm-up has certainly sent on, with the same
// path shape under every seed.
func warmCrossFlow(gen *generator) int {
	for _, f := range gen.picks {
		if f%zipfClasses == 6 {
			return int(f)
		}
	}
	return 0
}

// --- fleet-churn --------------------------------------------------------

func setupFleet(env *runEnv) (*instance, error) {
	topo := lab.New(env.topoOptions(lab.WithSNConfig(func(c *sn.Config) {
		c.HandshakeTimeout = 2 * time.Second
		c.HandshakeRetries = 8
	}))...)
	ring := env.sz.fleetHosts
	total := ring + env.sz.churnHosts
	gen := newGenerator(env.seed, ring, ring, pickSequential, 0)
	g := env.loadgen(gen)
	in := &instance{topo: topo, g: g, hosts: total, cacheSize: defaultCacheSize}

	t0 := time.Now()
	fleet, err := topo.NewFleet(lab.FleetConfig{
		SNs:   env.sz.fleetSNs,
		Hosts: total,
		HostConfig: func(i int, hc *host.Config) {
			hc.FastHandler = func(_ wire.Addr, _ wire.ILPHeader, payload []byte) { g.deliver(i, payload, true) }
		},
		RegisterSN: func(t *lab.Topology, ed *lab.Edomain, node *sn.SN) error {
			return node.Register(ipfwd.New(t.NewNodeResolver(ed, node), t.Fabric),
				sn.WithWorkers(2), sn.WithQueueDepth(4096))
		},
	})
	if err != nil {
		return nil, err
	}
	in.connect, in.pipes = time.Since(t0), fleet.Engine.Pipes()
	in.fleet, in.unclaimed = fleet, sumUnclaimed(fleet.Hosts)

	// Host i sends to host i+1 around the data ring; the churn hosts past
	// the ring carry no data, so rekeying their pipes loses nothing.
	eps := make([]wire.Addr, ring)
	for i := 0; i < ring; i++ {
		eps[i] = fleet.Hosts[i].Addr()
	}
	nodeAt := make(map[wire.Addr]*sn.SN, len(fleet.Ed.SNs))
	for _, node := range fleet.Ed.SNs {
		nodeAt[node.Addr()] = node
	}
	vias := make([]wire.Addr, ring)
	for i := range vias {
		if vias[i], err = fleet.Hosts[i].FirstHop(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < ring; i++ {
		dst := (i + 1) % ring
		data := ipfwd.DestData(eps[dst])
		hdr, err := encodeHeader(wire.SvcIPFwd, i+1, data)
		if err != nil {
			return nil, err
		}
		srcAddr, srcSN, dstSN := eps[i], vias[i], vias[dst]
		g.flows = append(g.flows, &flow{
			tag: uint32(i), dstEP: dst, src: fleet.Hosts[i], via: srcSN, hdr: hdr, svc: wire.SvcIPFwd, data: data,
			// A closed connection's rules go from both SNs on its path
			// (the last-hop SN keys the flow by the SN it came from). Left
			// in place, fresh ids would fill the decision caches part-way
			// through a run and change what later rounds measure.
			cleanup: func(id wire.ConnectionID) {
				nodeAt[srcSN].Cache().Invalidate(wire.FlowKey{Src: srcAddr, Service: wire.SvcIPFwd, Conn: id})
				nodeAt[dstSN].Cache().Invalidate(wire.FlowKey{Src: srcSN, Service: wire.SvcIPFwd, Conn: id})
			},
		})
	}
	// The one-in-flight phases use the first flow of the seed's walk that
	// crosses two SNs, so their path has the same shape under every seed.
	warm := int(gen.picks[0])
	for _, f := range gen.picks {
		if vias[f] != vias[(int(f)+1)%ring] {
			warm = int(f)
			break
		}
	}
	in.phases = phasesFor(256, warm)
	if env.tr != nil {
		env.tr.describe(g.flows, eps, false)
	}
	// The shared mux queue is the fleet's one NIC: back off when the engine
	// workers fall behind instead of overflowing it.
	high := fleet.Mux.Capacity() / 4
	g.pace = func() {
		b := fleet.Mux.Backlog()
		if b > g.backlogMax {
			g.backlogMax = b
		}
		for ; b > high; b = fleet.Mux.Backlog() {
			time.Sleep(200 * time.Microsecond)
		}
	}
	in.churn = newChurner(env, fleet, ring, g.delivered.Load)
	in.regs = func() map[string]telemetry.Snapshot {
		out := map[string]telemetry.Snapshot{
			"fabric": topo.Net.Telemetry().Snapshot(),
			"engine": fleet.EngineReg.Snapshot(),
		}
		snRegs("fleet", fleet.Ed.SNs, out)
		return out
	}
	// One pass around the ring resolves and installs every flow's rules.
	n := env.sz.warmup
	if n < uint64(ring) {
		n = uint64(ring)
	}
	return in, warmUp(g, 256, n)
}
