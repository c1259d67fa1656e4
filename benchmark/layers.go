package main

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"interedge/internal/edomain"
	"interedge/internal/enclave"
	"interedge/internal/handshake"
	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/lookup"
	"interedge/internal/lookup/rescache"
	"interedge/internal/netsim"
	"interedge/internal/peering"
	"interedge/internal/pipe"
	"interedge/internal/psp"
	"interedge/internal/services/echo"
	"interedge/internal/services/null"
	"interedge/internal/sn"
	"interedge/internal/sn/cache"
	"interedge/internal/telemetry"
	"interedge/internal/tunnel"
	"interedge/internal/wire"
)

// "Call" rows time a layer's public functions from here, on inputs shaped
// like the workload's (its smallest payload, its decision-cache size).
// Each row gets the same slice of the run's time; the value is the p50 of
// per-call times over batches.

// layerCtx carries what the call rows need and collects their results.
type layerCtx struct {
	unit      time.Duration // time budget of one row
	small     int           // the workload's smallest payload
	cacheSize int           // the workload's per-SN decision-cache capacity
	out       map[string]metric
	notes     []string
	// costs the layer budget multiplies operation counts by, in ns
	cost struct {
		seal, open, cacheHit, cacheMiss, cacheAdd, netsimSend, inject, rescacheHit, rescacheFill, hostSend float64
	}
}

func (lc *layerCtx) put(name string, v float64, n int) {
	lc.out[name] = metric{Value: v, Unit: layerUnit(name), N: n}
}

// timeCall runs fn in batches of batch calls until budget is spent and
// returns the p50 per-call time in ns and the number of calls made.
func timeCall(budget time.Duration, batch int, fn func()) (float64, int) {
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return reduceTimings(samples).P50, len(samples) * batch
}

// timeEach times every call on its own (for calls long enough that the
// clock reads do not matter) and returns the sample's statistics.
func timeEach(budget time.Duration, fn func()) timingStats {
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0)))
	}
	return reduceTimings(samples)
}

// must stops the run on a set-up error of a layer bench: the inputs are
// the benchmark's own, so a failure here is a bug or an API that changed.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: layer bench: %v", err))
	}
}

// benchAddr returns a synthetic address outside the lab allocator's range.
func benchAddr(n int) wire.Addr {
	var b [16]byte
	b[0], b[1] = 0xfd, 0x42
	b[12], b[13], b[14], b[15] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return netip.AddrFrom16(b)
}

// runLayerCalls fills every "call" row.
func runLayerCalls(lc *layerCtx) {
	layerWire(lc)
	layerPSP(lc)
	layerHandshake(lc)
	layerPipe(lc)
	layerCache(lc)
	layerEnclave(lc)
	layerLookup(lc)
	layerRescache(lc)
	layerEdomainPeering(lc)
	layerNetsim(lc)
	layerSN(lc)
	layerHost(lc)
	layerTunnel(lc)
}

func layerWire(lc *layerCtx) {
	hdr := wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 7, Data: make([]byte, 16)}
	buf := make([]byte, 64)
	v, n := timeCall(lc.unit, 1024, func() { _, _ = hdr.SerializeTo(buf) })
	lc.put("wire.ilp_encode_ns", v, n)
	enc, err := hdr.Encode()
	must(err)
	var dec wire.ILPHeader
	v, n = timeCall(lc.unit, 1024, func() { _, _ = dec.DecodeFromBytes(enc) })
	lc.put("wire.ilp_decode_ns", v, n)
	dg := wire.Datagram{Src: benchAddr(1), Dst: benchAddr(2), Payload: make([]byte, lc.small+64)}
	out := make([]byte, 0, 2048)
	v, n = timeCall(lc.unit, 1024, func() { out, _ = dg.AppendEncode(out[:0]) })
	lc.put("wire.datagram_encode_ns", v, n)
}

// pipeKeys runs one real handshake and returns both ends' key material.
func pipeKeys() (ini, res *handshake.Result) {
	a, b := benchAddr(1), benchAddr(2)
	idA, err := handshake.NewIdentity()
	must(err)
	idB, err := handshake.NewIdentity()
	must(err)
	pend, err := handshake.Initiate(idA, a, b)
	must(err)
	msg2, res, err := handshake.Respond(idB, b, a, pend.Msg1())
	must(err)
	ini, err = pend.Complete(msg2)
	must(err)
	return ini, res
}

func layerPSP(lc *layerCtx) {
	keys, _ := pipeKeys()
	tx, err := psp.NewTX(keys.Master, psp.DirInitiatorToResponder, keys.BaseSPI)
	must(err)
	rx, err := psp.NewRX(keys.Master, psp.DirInitiatorToResponder, keys.BaseSPI)
	must(err)
	rx.SetReplayCheck(false) // the same sealed packet is opened repeatedly
	hdr, err := (&wire.ILPHeader{Service: wire.SvcNone, Conn: 1}).Encode()
	must(err)
	var s psp.Scratch
	sealed := func(size int) []byte {
		pkt, err := tx.Seal(nil, hdr, make([]byte, size))
		must(err)
		return pkt
	}
	openAt := func(size int) (float64, int) {
		pkt := sealed(size)
		return timeCall(lc.unit, 256, func() { _, _, _ = rx.OpenScratch(&s, pkt) })
	}
	sealAt := func(size int) (float64, int) {
		payload, dst := make([]byte, size), make([]byte, 0, size+128)
		return timeCall(lc.unit, 256, func() { _, _ = tx.SealScratch(&s, dst[:0], hdr, payload) })
	}
	v, n := openAt(64)
	lc.put("psp.open_ns_64", v, n)
	v, n = openAt(1024)
	lc.put("psp.open_ns_1024", v, n)
	v, n = sealAt(64)
	lc.put("psp.seal_ns_64", v, n)
	v, n = sealAt(1024)
	lc.put("psp.seal_ns_1024", v, n)
	lc.cost.open, _ = openAt(lc.small)
	lc.cost.seal, _ = sealAt(lc.small)

	const batch = 32
	pkts := make([][]byte, batch)
	for i := range pkts {
		pkts[i] = sealed(lc.small)
	}
	results := make([]psp.OpenResult, batch)
	v, n = timeCall(lc.unit, 8, func() { rx.OpenBatch(&s, pkts, results) })
	lc.put("psp.open_batch_ns_per_pkt", v/batch, n*batch)
	hdrs, payloads, dsts := make([][]byte, batch), make([][]byte, batch), make([][]byte, batch)
	for i := range hdrs {
		hdrs[i], payloads[i], dsts[i] = hdr, make([]byte, lc.small), make([]byte, 0, lc.small+128)
	}
	v, n = timeCall(lc.unit, 8, func() {
		for i := range dsts {
			dsts[i] = dsts[i][:0]
		}
		_ = tx.SealBatch(&s, dsts, hdrs, payloads)
	})
	lc.put("psp.seal_batch_ns_per_pkt", v/batch, n*batch)

	const allocRuns = 4096
	payload, dst := make([]byte, lc.small), make([]byte, 0, lc.small+128)
	m0 := mallocCount()
	for i := 0; i < allocRuns; i++ {
		pkt, _ := tx.SealScratch(&s, dst[:0], hdr, payload)
		_, _, _ = rx.OpenScratch(&s, pkt)
	}
	lc.put("psp.allocs_per_pkt", float64(mallocCount()-m0)/allocRuns, allocRuns)
}

func layerHandshake(lc *layerCtx) {
	a, b := benchAddr(1), benchAddr(2)
	idA, err := handshake.NewIdentity()
	must(err)
	idB, err := handshake.NewIdentity()
	must(err)
	var ini, resp, comp []float64
	deadline := time.Now().Add(3 * lc.unit)
	for len(ini) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		pend, err := handshake.Initiate(idA, a, b)
		must(err)
		t1 := time.Now()
		msg2, _, err := handshake.Respond(idB, b, a, pend.Msg1())
		must(err)
		t2 := time.Now()
		_, err = pend.Complete(msg2)
		must(err)
		t3 := time.Now()
		ini, resp, comp = append(ini, float64(t1.Sub(t0))), append(resp, float64(t2.Sub(t1))), append(comp, float64(t3.Sub(t2)))
	}
	lc.put("handshake.initiate_us", reduceTimings(ini).P50/1e3, len(ini))
	lc.put("handshake.respond_us", reduceTimings(resp).P50/1e3, len(resp))
	lc.put("handshake.complete_us", reduceTimings(comp).P50/1e3, len(comp))
}

// sinkManager attaches a pipe.Manager at addr that counts what it receives.
func sinkManager(net *netsim.Network, addr wire.Addr, got *atomic.Uint64) *pipe.Manager {
	tr, err := net.Attach(addr)
	must(err)
	id, err := handshake.NewIdentity()
	must(err)
	m, err := pipe.New(pipe.Config{Transport: tr, Identity: id,
		Handler: func(pipe.Sender, wire.Addr, wire.ILPHeader, []byte, []byte) { got.Add(1) }})
	must(err)
	return m
}

func layerPipe(lc *layerCtx) {
	net := netsim.NewNetwork()
	var got atomic.Uint64
	const peers = 8
	a := sinkManager(net, benchAddr(100), &got)
	defer a.Close()
	for i := 0; i < peers; i++ {
		p := sinkManager(net, benchAddr(200+i), &got)
		defer p.Close()
		must(a.Connect(benchAddr(200 + i)))
	}
	first := benchAddr(200)
	ts := timeEach(lc.unit, func() { must(a.Redial(first)) })
	lc.put("pipe.connect_p50_us", ts.P50/1e3, ts.N)
	hdr := wire.ILPHeader{Service: wire.SvcNone, Conn: 1}
	payload := make([]byte, lc.small)
	v, n := timeCall(lc.unit, 64, func() { _ = a.Send(first, &hdr, payload) })
	lc.put("pipe.send_ns", v, n)
	v, n = timeCall(lc.unit, 16, func() { _ = a.RotateAll() })
	lc.put("pipe.rotate_all_us", v/1e3, n)

	// The shared engine: lite endpoints on a mux, dialing one manager.
	mux := net.NewMux(4096)
	eng, err := pipe.NewEngine(pipe.EngineConfig{Transport: mux})
	must(err)
	defer eng.Close()
	local := benchAddr(300)
	must(mux.AddPort(local))
	id, err := handshake.NewIdentity()
	must(err)
	must(eng.AddEndpoint(pipe.EndpointConfig{Addr: local, Identity: id,
		Handler: func(pipe.Sender, wire.Addr, wire.ILPHeader, []byte, []byte) {}}))
	must(eng.Connect(local, first))
	ts = timeEach(lc.unit, func() { must(eng.Redial(local, first)) })
	lc.put("pipe.engine_connect_p50_us", ts.P50/1e3, ts.N)
	enc, err := hdr.Encode()
	must(err)
	v, n = timeCall(lc.unit, 64, func() { _ = eng.SendHeaderBytes(local, first, enc, payload) })
	lc.put("pipe.engine_send_ns", v, n)
}

func layerCache(lc *layerCtx) {
	c := cache.New(lc.cacheSize)
	src, dst := benchAddr(1), benchAddr(2)
	action := cache.Action{Forward: []wire.Addr{dst}}
	key := func(i int) wire.FlowKey {
		return wire.FlowKey{Src: src, Service: wire.SvcIPFwd, Conn: wire.ConnectionID(i)}
	}
	// Fill just past capacity, so that every shard is full and Add below
	// evicts. (Not further: an Add into a full shard scans the shard.)
	filled := lc.cacheSize + lc.cacheSize/64
	for i := 0; i < filled; i++ {
		c.Add(key(i), action)
	}
	hot := key(filled - 1)
	v, n := timeCall(lc.unit, 1024, func() { c.Lookup(hot) })
	lc.put("cache.lookup_hit_ns", v, n)
	lc.cost.cacheHit = v
	miss := wire.FlowKey{Src: dst, Service: wire.SvcIPFwd, Conn: 1}
	v, n = timeCall(lc.unit, 1024, func() { c.Lookup(miss) })
	lc.put("cache.lookup_miss_ns", v, n)
	lc.cost.cacheMiss = v
	next := filled
	v, n = timeCall(lc.unit, 16, func() { c.Add(key(next), action); next++ })
	lc.put("cache.add_evict_ns", v, n)
	lc.cost.cacheAdd = v
	other := benchAddr(3)
	v, n = timeCall(lc.unit, 4, func() { c.InvalidateDest(other) })
	lc.put("cache.invalidate_dest_us", v/1e3, n)
}

func layerEnclave(lc *layerCtx) {
	e, err := enclave.New("bench", "1", nil)
	must(err)
	in := make([]byte, 1024)
	v, n := timeCall(lc.unit, 64, func() { _, _ = e.Run(in, func(b []byte) ([]byte, error) { return b, nil }) })
	lc.put("enclave.crossing_ns_1024", v, n)
}

// seedDirectory registers n signed records and returns the service, the
// addresses and, for re-registration, each record with its signature.
func seedDirectory(n int) (*lookup.Service, []lookup.AddrRecord, [][]byte) {
	svc := lookup.New()
	id, err := handshake.NewIdentity()
	must(err)
	recs, sigs := make([]lookup.AddrRecord, n), make([][]byte, n)
	first := []wire.Addr{benchAddr(9)}
	for i := range recs {
		a := benchAddr(1000 + i)
		recs[i] = lookup.AddrRecord{Addr: a, Owner: id.PublicKey(), SNs: first}
		sigs[i] = lookup.SignAddrRecord(id.Signing, a, first)
	}
	svc.RestoreRecords(append([]lookup.AddrRecord(nil), recs...))
	return svc, recs, sigs
}

func layerLookup(lc *layerCtx) {
	const records = 4096
	svc, recs, sigs := seedDirectory(records)
	i := 0
	resolve := func() {
		_, _ = svc.ResolveAddress(recs[i&(records-1)].Addr)
		i++
	}
	v, n := timeCall(lc.unit, 1024, resolve)
	lc.put("lookup.resolve_ns", v, n)
	j := 0
	ts := timeEach(lc.unit, func() {
		must(svc.RegisterAddress(recs[j&(records-1)], sigs[j&(records-1)]))
		j++
	})
	lc.put("lookup.register_us", ts.P50/1e3, ts.N)

	// Resolve beside a registrar that republishes as fast as it can, and a
	// watcher that measures how late each event reaches it.
	events, cancel := svc.WatchAddresses(1024)
	var lags []float64
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ev := range events {
			if !ev.At.IsZero() {
				lags = append(lags, float64(time.Since(ev.At)))
			}
		}
	}()
	stop, regDone := make(chan struct{}), make(chan struct{})
	var registered atomic.Uint64
	churnStart := time.Now()
	go func() {
		defer close(regDone)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if svc.RegisterAddress(recs[k&(records-1)], sigs[k&(records-1)]) == nil {
				registered.Add(1)
			}
		}
	}()
	for registered.Load() == 0 { // time nothing until the churn is under way
		runtime.Gosched()
	}
	v, n = timeCall(2*lc.unit, 1024, resolve)
	close(stop)
	<-regDone
	churn := float64(registered.Load()) / time.Since(churnStart).Seconds()
	cancel()
	<-watchDone
	lc.put("lookup.resolve_under_churn_ns", v, n)
	lc.put("lookup.churn_per_s", churn, int(registered.Load()))
	lc.put("lookup.watch_lag_p99_us", reduceTimings(lags).P99/1e3, len(lags))
}

func layerRescache(lc *layerCtx) {
	const records = 4096
	svc, recs, _ := seedDirectory(records)
	warm := rescache.New(rescache.Config{Backend: svc})
	defer warm.Close()
	for _, r := range recs {
		_, err := warm.ResolveAddress(r.Addr)
		must(err)
	}
	i := 0
	v, n := timeCall(lc.unit, 1024, func() { warm.ResolveCached(recs[i&(records-1)].Addr); i++ })
	lc.put("rescache.hit_ns", v, n)
	lc.cost.rescacheHit = v
	// A lease of one nanosecond expires every entry at once, so every
	// resolve takes the fill path: miss, fill goroutine, backend, callback.
	cold := rescache.New(rescache.Config{Backend: svc, Lease: time.Nanosecond})
	defer cold.Close()
	j := 0
	ts := timeEach(lc.unit, func() { _, _ = cold.ResolveAddress(recs[j&(records-1)].Addr); j++ })
	lc.put("rescache.fill_p50_us", ts.P50/1e3, ts.N)
	lc.cost.rescacheFill = ts.P50
}

func layerEdomainPeering(lc *layerCtx) {
	core := edomain.New("bench", lookup.New())
	defer core.Close()
	const sns, hosts = 4, 4096
	for i := 0; i < sns; i++ {
		core.RegisterSN(benchAddr(10 + i))
	}
	i := 0
	v, n := timeCall(lc.unit, 1024, func() { core.PlaceHost(benchAddr(1000 + i&(hosts-1))); i++ })
	lc.put("edomain.place_host_ns", v, n)
	perSN := make(map[wire.Addr]int)
	for h := 0; h < hosts; h++ {
		if owner, ok := core.PlaceHost(benchAddr(1000 + h)); ok {
			perSN[owner]++
		}
	}
	most := 0
	for _, c := range perSN {
		if c > most {
			most = c
		}
	}
	lc.put("edomain.placement_balance_x1000", float64(most)*sns/hosts*1000, hosts)

	inner := wire.ILPHeader{Service: wire.SvcIPFwd, Conn: 7, Data: make([]byte, 16)}
	payload := make([]byte, lc.small)
	v, n = timeCall(lc.unit, 256, func() { _, _, _ = peering.EncodeTransit(benchAddr(1), benchAddr(2), &inner, payload) })
	lc.put("peering.encode_transit_ns", v, n)

	// The gateway chain against a direct SN-to-SN pipe, on the same warm
	// cross-edomain flow, one packet in flight.
	sz := smokeSizes
	in, err := setupMix(&runEnv{seed: 1, sz: sz})
	must(err)
	defer in.close()
	one := in.phases[2]
	viaGateways, err := in.g.runPhase(one, 2*lc.unit, 0)
	must(err)
	in.topo.Fabric.SetDirectConnect(true)
	_, err = in.g.runPhase(one, 0, 200) // let the direct pipe establish
	must(err)
	direct, err := in.g.runPhase(one, 2*lc.unit, 0)
	must(err)
	extra := reduceTimings(viaGateways.lat).P50 - reduceTimings(direct.lat).P50
	lc.put("peering.gateway_extra_us", extra/1e3, len(viaGateways.lat)+len(direct.lat))
}

func layerNetsim(lc *layerCtx) {
	net := netsim.NewNetwork()
	a, err := net.Attach(benchAddr(1))
	must(err)
	b, err := net.Attach(benchAddr(2))
	must(err)
	done := make(chan struct{})
	go func() { // the receiver: drain, as a node's receive loop would
		defer close(done)
		for range b.Receive() {
		}
	}()
	dg := wire.Datagram{Dst: benchAddr(2), Payload: make([]byte, lc.small+64)}
	v, n := timeCall(lc.unit, 256, func() { _ = a.Send(dg) })
	lc.put("netsim.send_ns", v, n)
	lc.cost.netsimSend = v
	const batch = 32
	dgs := make([]wire.Datagram, batch)
	for i := range dgs {
		dgs[i] = dg
	}
	v, n = timeCall(lc.unit, 8, func() { _, _ = netsim.SendBatch(a, dgs) })
	lc.put("netsim.send_batch_ns_per_pkt", v/batch, n*batch)
	a.Close()
	b.Close()
	<-done

	// The UDP substrate over the loopback interface (no real link).
	dir := netsim.NewUDPDirectory()
	reg := telemetry.NewRegistry()
	ua, err := netsim.NewUDPTransport(benchAddr(1), "127.0.0.1:0", dir, netsim.WithUDPTelemetry(reg))
	if err != nil {
		lc.notes = append(lc.notes, fmt.Sprintf("netsim.udp_* rows: loopback sockets unavailable (%v)", err))
		lc.put("netsim.udp_send_batch_ns_per_pkt", 0, 0)
		lc.put("netsim.udp_gso_active", 0, 0)
		return
	}
	defer ua.Close()
	ub, err := netsim.NewUDPTransport(benchAddr(2), "127.0.0.1:0", dir)
	must(err)
	udone := make(chan struct{})
	go func() {
		defer close(udone)
		for range ub.Receive() {
		}
	}()
	v, n = timeCall(lc.unit, 4, func() { _, _ = netsim.SendBatch(ua, dgs) })
	lc.put("netsim.udp_send_batch_ns_per_pkt", v/batch, n*batch)
	gso := 0.0
	if s, ok := reg.Snapshot().Get("transport_gso_segments"); ok && s.Hist != nil && s.Hist.Count > 0 {
		gso = 1
	}
	lc.put("netsim.udp_gso_active", gso, 1)
	ub.Close()
	<-udone
}

// echoRTT measures the one-in-flight echo round trip through an SN whose
// echo module runs on the given module transport.
func echoRTT(tr sn.Transport, payload int, budget time.Duration) timingStats {
	topo := lab.New()
	defer topo.Close()
	ed, err := topo.AddEdomain("bench", 1, func(node *sn.SN, _ *lab.Edomain) error {
		return node.Register(echo.New(), sn.WithTransport(tr))
	})
	must(err)
	h, err := topo.NewHost(ed, 0)
	must(err)
	conn, err := h.NewConn(wire.SvcEcho)
	must(err)
	defer conn.Close()
	buf := make([]byte, payload)
	rtt := func() {
		must(conn.Send(nil, buf))
		select {
		case <-conn.Receive():
		case <-time.After(stallTimeout):
			must(fmt.Errorf("echo over module transport %s timed out", tr))
		}
	}
	for i := 0; i < 200; i++ {
		rtt()
	}
	return timeEach(budget, rtt)
}

func layerSN(lc *layerCtx) {
	for _, tr := range []sn.Transport{sn.TransportDirect, sn.TransportChan, sn.TransportIPC} {
		ts := echoRTT(tr, lc.small, 2*lc.unit)
		lc.put("sn.module_rtt_"+tr.String()+"_us", ts.P50/1e3, ts.N)
	}

	layerSNInject(lc)
}

// layerSNInject times the slow path from the terminus on: through the null
// module on the default module transport and back out to a connected host.
func layerSNInject(lc *layerCtx) {
	topo := lab.New()
	defer topo.Close()
	ed, err := topo.AddEdomain("bench", 1, func(node *sn.SN, _ *lab.Edomain) error {
		return node.Register(null.New())
	})
	must(err)
	h, err := topo.NewHost(ed, 0)
	must(err)
	var got atomic.Uint64
	h.OnService(wire.SvcNull, func(host.Message) { got.Add(1) })
	node := ed.SNs[0]
	hdr := wire.ILPHeader{Service: wire.SvcNull, Conn: 1}
	payload := make([]byte, lc.small)
	var sent uint64
	// settle waits until at most ahead injected packets are still inside
	// the SN, and stops the run when they stay there: the path is
	// loss-free, so a packet that never comes out is a bug worth the
	// counters, not a number to report.
	settle := func(ahead uint64) {
		if sent-got.Load() <= ahead {
			return
		}
		for deadline := time.Now().Add(stallTimeout); sent-got.Load() > ahead; runtime.Gosched() {
			if time.Now().After(deadline) {
				must(fmt.Errorf("sn.inject: %d of %d injected packets came out; SN counters %+v", got.Load(), sent, node.Counters()))
			}
		}
	}
	v, n := timeCall(lc.unit, 32, func() {
		settle(127) // stay within the module's queue (256): a full queue drops
		node.Inject(h.Addr(), hdr, payload)
		sent++
	})
	settle(0)
	lc.put("sn.inject_ns", v, n)
	lc.cost.inject = v
}

func layerHost(lc *layerCtx) {
	topo := lab.New()
	defer topo.Close()
	ed, err := topo.AddEdomain("bench", 1, func(node *sn.SN, _ *lab.Edomain) error {
		return node.Register(echo.New())
	})
	must(err)
	h, err := topo.NewHost(ed, 0)
	must(err)
	first := ed.SNs[0].Addr()
	ts := timeEach(lc.unit, func() { must(h.Reassociate(first)) })
	lc.put("host.associate_p50_us", ts.P50/1e3, ts.N)
	// The send call alone: replies go unclaimed (there is no connection
	// with this id), which costs the host one demultiplex and no copy to a
	// reader.
	hdr, err := (&wire.ILPHeader{Service: wire.SvcEcho, Conn: 1 << 40}).Encode()
	must(err)
	payload := make([]byte, lc.small)
	v, n := timeCall(lc.unit, 64, func() { _ = h.SendHeaderBytes(first, hdr, payload) })
	lc.put("host.send_ns", v, n)
	lc.cost.hostSend = v
}

func layerTunnel(lc *layerCtx) {
	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	must(err)
	now := time.Now()
	t, err := tunnel.NewTunnel(key.PublicKey().Bytes(), now)
	must(err)
	ts := timeEach(lc.unit, func() { must(t.Rotate(now)) })
	lc.put("tunnel.rotation_us", ts.P50/1e3, ts.N)
	// Appendix C: the share of one core that keeps 10 000 tunnels rotating
	// every three minutes.
	lc.put("tunnel.core_fraction_10k", ts.P50*10000/float64(3*time.Minute), ts.N)
}
