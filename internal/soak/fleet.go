package soak

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"interedge/internal/host"
	"interedge/internal/lab"
	"interedge/internal/netsim"
	"interedge/internal/services/ipfwd"
	"interedge/internal/sn"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// FleetConfig sizes the million-host fleet scenario: a weightless fleet
// of engine-backed lite hosts (lab.NewFleet) under placement-driven load
// with a rolling drain in the middle. Unlike the compressed-time
// scenarios this one runs on the real clock: the interesting dimension
// is scale (hosts, pipes, goroutine budget), not simulated hours.
type FleetConfig struct {
	// SNs and Hosts size the fleet (defaults 100 and 100_000).
	SNs   int
	Hosts int
	// Rounds is the number of full-fleet send sweeps: every host sends one
	// packet to its ring partner per round (default 8).
	Rounds int
	// DrainSNs is how many (non-gateway) SNs the rolling drain takes out
	// and reactivates mid-run (default 3; must stay below SNs).
	DrainSNs int
	// RatePPS is the aggregate offered load target across the fleet
	// (default 25_000 * GOMAXPROCS). Senders pace per round; a slower
	// machine simply stretches the round.
	RatePPS float64
	// Seed feeds the substrate RNG (unused on clean links, kept for
	// report parity).
	Seed int64
	// Logf receives progress diagnostics (nil discards).
	Logf func(format string, args ...any)
}

// The scenario's fixed shape and gate bounds.
const (
	// fleetName labels the report.
	fleetName = "million-host"
	// fleetSNRxWorkers is every SN's pipe-terminus width.
	fleetSNRxWorkers = 1
	// goroutinesPerSN is the steady-state goroutine budget charged per SN
	// in the leak-bound gate. The whole point of the fleet: the budget has
	// no Hosts term.
	goroutinesPerSN = 24
	// Gate bounds. The fast-path floor accounts for structure, not health:
	// sn_rx_packets counts handshake datagrams and the two cold
	// resolutions every flow pays, so at R rounds the ceiling is roughly
	// (2R-2)/(2R) minus the handshake share — longer runs push it toward 1.
	fleetDeliveryRatioMin = 0.95
	fleetFastpathRatioMin = 0.60
	fleetLookupRateMin    = 0.40
	fleetBalanceMaxX1000  = 2200
)

func (c FleetConfig) withDefaults() FleetConfig {
	if c.SNs == 0 {
		c.SNs = 100
	}
	if c.Hosts == 0 {
		c.Hosts = 100_000
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.DrainSNs == 0 {
		c.DrainSNs = 3
	}
	if c.DrainSNs >= c.SNs {
		c.DrainSNs = c.SNs - 1
	}
	if c.RatePPS == 0 {
		c.RatePPS = 25_000 * float64(runtime.GOMAXPROCS(0))
		// Keep each sweep >= 1s of wall clock: a tiny fleet at the full
		// default rate compresses the whole run into the rolling-drain
		// window and ends up measuring failover, not steady state.
		if c.RatePPS > float64(c.Hosts) {
			c.RatePPS = float64(c.Hosts)
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// fleetPayloadLen carries the sender's fleet index and the round number.
const fleetPayloadLen = 16

// RunFleet builds the weightless fleet, drives Rounds full-fleet sweeps
// of partner traffic through ipfwd (host i -> host (i+1) mod Hosts) with
// a rolling drain/reactivate of DrainSNs SNs mid-run, and evaluates the
// scale gates: delivery ratio, fast-path p99 and hit ratio, lookup-cache
// hit rate, placement balance after the drain cycle, ring-change
// accounting, and — the reason the fleet exists — a steady-state
// goroutine ceiling with no Hosts term.
func RunFleet(cfg FleetConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	senders := min(4, 2*runtime.GOMAXPROCS(0))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc
	goroBase := runtime.NumGoroutine()
	wallStart := time.Now()

	fabricReg := telemetry.NewRegistry()
	net := netsim.NewNetwork(
		netsim.WithSeed(cfg.Seed),
		netsim.WithTelemetry(fabricReg),
		netsim.WithQueueDepth(16384),
	)
	topo := lab.New(
		lab.WithNetwork(net),
		lab.WithSNConfig(func(c *sn.Config) {
			c.RxWorkers = fleetSNRxWorkers
			// Four entries per host the SN serves, and never fewer than 1024.
			c.CacheSize = max(1024, 4*(cfg.Hosts/cfg.SNs))
			c.HandshakeTimeout = 2 * time.Second
			c.HandshakeRetries = 8
		}),
	)
	defer topo.Close()
	topo.Global.RegisterTelemetry(fabricReg)

	var delivered, bad atomic.Uint64
	handler := func(i int) func(src wire.Addr, hdr wire.ILPHeader, payload []byte) {
		expect := uint64((i + cfg.Hosts - 1) % cfg.Hosts)
		return func(_ wire.Addr, hdr wire.ILPHeader, payload []byte) {
			if hdr.Service != wire.SvcIPFwd || len(payload) != fleetPayloadLen ||
				binary.BigEndian.Uint64(payload[:8]) != expect {
				bad.Add(1)
				return
			}
			delivered.Add(1)
		}
	}

	buildStart := time.Now()
	fleet, err := topo.NewFleet(lab.FleetConfig{
		SNs:   cfg.SNs,
		Hosts: cfg.Hosts,
		HostConfig: func(i int, hc *host.Config) {
			hc.FastHandler = handler(i)
		},
		RegisterSN: func(t *lab.Topology, ed *lab.Edomain, node *sn.SN) error {
			rc := t.NewNodeResolver(ed, node)
			return node.Register(ipfwd.New(rc, t.Fabric),
				sn.WithWorkers(2), sn.WithQueueDepth(4096))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("soak: build fleet: %w", err)
	}
	cfg.Logf("fleet up: %d SNs, %d hosts, %d engine workers, build %.1fs, goroutines %d",
		cfg.SNs, cfg.Hosts, fleet.Engine.RxWorkers(), time.Since(buildStart).Seconds(), runtime.NumGoroutine())

	// Pre-encode every flow's ILP header once: the send loop is then pure
	// SendHeaderBytes, the same zero-alloc path the pipe-terminus uses.
	hdrs := make([][]byte, cfg.Hosts)
	for i := range hdrs {
		partner := fleet.Hosts[(i+1)%cfg.Hosts].Addr()
		hdr := wire.ILPHeader{
			Service: wire.SvcIPFwd,
			Conn:    wire.ConnectionID(i + 1),
			Data:    ipfwd.DestData(partner),
		}
		enc, err := hdr.Encode()
		if err != nil {
			return nil, fmt.Errorf("soak: encode fleet header: %w", err)
		}
		hdrs[i] = enc
	}

	goroSteady := runtime.NumGoroutine()
	sampleSteady := func() {
		if n := runtime.NumGoroutine(); n > goroSteady {
			goroSteady = n
		}
	}

	var sent atomic.Uint64
	roundDur := time.Duration(float64(cfg.Hosts) / cfg.RatePPS * float64(time.Second))
	loadStart := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := make([]byte, fleetPayloadLen)
			// Flow control: the shared mux queue is the fleet's one NIC.
			// When its backlog crosses the high-water mark the engine
			// workers are behind — back off instead of overflowing it.
			// (There is no per-host backpressure at 10^5 endpoints; the
			// queue depth IS the aggregate burst budget.)
			high := fleet.Mux.Capacity() / 4
			for r := 0; r < cfg.Rounds; r++ {
				start := time.Now()
				binary.BigEndian.PutUint64(payload[8:], uint64(r))
				for i := s; i < cfg.Hosts; i += senders {
					if i%512 == s%512 {
						for fleet.Mux.Backlog() > high {
							time.Sleep(2 * time.Millisecond)
						}
					}
					fh, err := fleet.Hosts[i].FirstHop()
					if err != nil {
						continue
					}
					binary.BigEndian.PutUint64(payload[:8], uint64(i))
					if fleet.Hosts[i].SendHeaderBytes(fh, hdrs[i], payload) == nil {
						// Failed sends (e.g. the rebind window of a live
						// handoff) are not offered load; the delivery gate
						// judges only what reached a pipe.
						sent.Add(1)
					}
				}
				if d := roundDur - time.Since(start); d > 0 {
					time.Sleep(d)
				}
			}
		}(s)
	}

	// Rolling drain: a quarter into the run, DrainSNs non-gateway SNs
	// leave the ring one after another (live handoff of every placed
	// host), sit out, and reactivate at the three-quarter mark (migrating
	// their hosts back, again by handoff).
	totalDur := time.Duration(cfg.Rounds) * roundDur
	drained := make([]wire.Addr, 0, cfg.DrainSNs)
	time.Sleep(totalDur / 4)
	sampleSteady()
	for k := 0; k < cfg.DrainSNs; k++ {
		target := fleet.Ed.SNs[1+k].Addr()
		if err := fleet.Place.DrainSN(target); err != nil {
			cfg.Logf("drain %s: %v", target, err)
			continue
		}
		drained = append(drained, target)
		cfg.Logf("drained %s (%d/%d)", target, k+1, cfg.DrainSNs)
		sampleSteady()
	}
	time.Sleep(totalDur / 4)
	for _, target := range drained {
		if err := fleet.Place.Reactivate(target); err != nil {
			cfg.Logf("reactivate %s: %v", target, err)
		}
		sampleSteady()
	}
	wg.Wait()
	sampleSteady()

	// Let the reactivation sweep finish migrating hosts back and in-flight
	// packets drain before the balance gauge and tallies are read.
	settleUntil := time.Now().Add(10 * time.Second)
	for time.Now().Before(settleUntil) && !placementSettled(fleet) {
		time.Sleep(50 * time.Millisecond)
	}
	last := delivered.Load()
	for i := 0; i < 40; i++ {
		time.Sleep(50 * time.Millisecond)
		if now := delivered.Load(); now == last {
			break
		} else {
			last = now
		}
	}
	loadSeconds := time.Since(loadStart).Seconds()

	// Steady-state goroutine budget: base + per-SN workers + the shared
	// engine + senders + controller slack. No Hosts term anywhere — that
	// is the property this gate pins.
	budget := goroBase + cfg.SNs*goroutinesPerSN + fleet.Engine.RxWorkers() + senders + 64

	fleetReg := telemetry.NewRegistry()
	fleetReg.Gauge("fleet_goroutines_steady").Set(int64(goroSteady))
	fleetReg.Gauge("fleet_hosts").Set(int64(cfg.Hosts))
	fleetReg.Gauge("fleet_sns").Set(int64(cfg.SNs))

	out := &runOutcome{
		regs:       map[string]telemetry.Snapshot{"fabric": fabricReg.Snapshot()},
		totals:     newTotals(),
		simSeconds: loadSeconds,
	}
	out.totals.Add(out.regs["fabric"])
	out.regs["engine"] = fleet.EngineReg.Snapshot()
	out.totals.Add(out.regs["engine"])
	out.regs["fleet"] = fleetReg.Snapshot()
	out.totals.Add(out.regs["fleet"])
	for si, node := range fleet.Ed.SNs {
		name := fmt.Sprintf("%s/sn%d", fleet.Ed.ID, si)
		snap := node.Telemetry().Snapshot()
		out.regs[name] = snap
		out.totals.Add(snap)
	}

	topo.Close()
	goroEnd := runtime.NumGoroutine()
	for wait := 0; wait < 200 && goroEnd > goroBase; wait++ {
		time.Sleep(5 * time.Millisecond)
		goroEnd = runtime.NumGoroutine()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)

	stats := RunStats{
		Scenario:      fleetName,
		Seed:          cfg.Seed,
		SimSeconds:    out.simSeconds,
		WallSeconds:   time.Since(wallStart).Seconds(),
		Sent:          sent.Load(),
		Delivered:     delivered.Load(),
		Bad:           bad.Load(),
		GoroutineBase: goroBase,
		GoroutineEnd:  goroEnd,
		HeapBase:      heapBase,
		HeapEnd:       ms.HeapAlloc,
		Totals:        out.totals,
	}
	gates := FleetGates(cfg, budget)
	results, ok := EvalGates(gates, &stats)
	ns := net.Telemetry().Snapshot()
	cfg.Logf("fleet %s: wall=%.1fs sent=%d delivered=%d goro steady=%d (budget %d) pass=%v "+
		"[netsim delivered=%.0f qdrop=%.0f deaddrop=%.0f]",
		fleetName, stats.WallSeconds, stats.Sent, stats.Delivered, goroSteady, budget, ok,
		ns.Value("netsim_delivered_total"), ns.Value("netsim_dropped_queue_total"), ns.Value("netsim_dropped_dead_total"))
	return &Result{Stats: stats, Gates: results, Registries: out.regs, passed: ok}, nil
}

// placementSettled reports whether every adopted host sits on its current
// ring owner — true once the post-reactivation sweep has finished.
func placementSettled(fleet *lab.Fleet) bool {
	for _, h := range fleet.Hosts {
		want, ok := fleet.Ed.Core.PlaceHost(h.Addr())
		if !ok {
			return false
		}
		got, ok := fleet.Place.PlacedOn(h.Addr())
		if !ok || got != want {
			return false
		}
	}
	return true
}

// FleetGates is the million-host SLO set. budget is the steady-state
// goroutine ceiling (computed from SNs, engine workers, and senders —
// never from Hosts).
func FleetGates(cfg FleetConfig, budget int) []Gate {
	return []Gate{
		DeliveryRatioMin(fleetDeliveryRatioMin),
		BadZero(),
		QuantileMaxNs("sn_fastpath_service_ns", 0.99, fastpathP99Bound),
		RatioMin("sn_fastpath_hits_total", "sn_rx_packets_total", fleetFastpathRatioMin),
		LookupHitRateMin(fleetLookupRateMin),
		CounterMax("edomain_placement_balance_x1000", fleetBalanceMaxX1000),
		// Ring accounting: SNs registrations seed the ring; every drained
		// SN contributes draining -> down -> active.
		CounterMin("edomain_ring_changes_total", float64(cfg.SNs+3*cfg.DrainSNs)),
		CounterMin("sn_handoff_pipes_total", 1),
		RatioMax("sn_requeue_drops_total", "sn_rx_packets_total", 0.05),
		CounterMax("fleet_goroutines_steady", float64(budget)),
		GoroutineCeiling(64),
	}
}
