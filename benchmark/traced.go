package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"interedge/internal/telemetry"
)

// perLayer lists the per-layer metrics: each layer's own work, cost,
// waiting and failures, as seen from outside. README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = []struct{ name, unit, better string }{
	{"wire.ilp_encode_ns", "ns", "lower"},
	{"wire.ilp_decode_ns", "ns", "lower"},
	{"wire.datagram_encode_ns", "ns", "lower"},

	{"psp.open_ns_64", "ns", "lower"},
	{"psp.open_ns_1024", "ns", "lower"},
	{"psp.open_batch_ns_per_pkt", "ns", "lower"},
	{"psp.seal_ns_64", "ns", "lower"},
	{"psp.seal_ns_1024", "ns", "lower"},
	{"psp.seal_batch_ns_per_pkt", "ns", "lower"},
	{"psp.allocs_per_pkt", "count", "lower"},

	{"handshake.initiate_us", "us", "lower"},
	{"handshake.respond_us", "us", "lower"},
	{"handshake.complete_us", "us", "lower"},

	{"pipe.connect_p50_us", "us", "lower"},
	{"pipe.send_ns", "ns", "lower"},
	{"pipe.rotate_all_us", "us", "lower"},
	{"pipe.rx_open_batch_p50", "count", "higher"},
	{"pipe.tx_flush_batch_p50", "count", "higher"},
	{"pipe.tx_flush_drops", "count", "lower"},
	{"pipe.engine_connect_p50_us", "us", "lower"},
	{"pipe.engine_send_ns", "ns", "lower"},
	{"pipe.engine_rx_open_errors", "count", "lower"},
	{"pipe.engine_rx_no_pipe", "count", "lower"},
	{"pipe.setups_per_s", "1/s", "higher"},

	{"sn.residence_p50_us", "us", "lower"},
	{"sn.residence_p99_us", "us", "lower"},
	{"sn.fastpath_service_p50_ns", "ns", "lower"},
	{"sn.fastpath_service_p99_ns", "ns", "lower"},
	{"sn.fastpath_share", "ratio", "higher"},
	{"sn.slowpath_sent", "count", "lower"},
	{"sn.requeued", "count", "lower"},
	{"sn.requeue_drops", "count", "lower"},
	{"sn.module_shed", "count", "lower"},
	{"sn.inject_ns", "ns", "lower"},
	{"sn.module_rtt_direct_us", "us", "lower"},
	{"sn.module_rtt_chan_us", "us", "lower"},
	{"sn.module_rtt_ipc_us", "us", "lower"},
	{"sn.drain_ms", "ms", "lower"},
	{"sn.handoff_pipes_per_s", "1/s", "higher"},

	{"cache.lookup_hit_ns", "ns", "lower"},
	{"cache.lookup_miss_ns", "ns", "lower"},
	{"cache.add_evict_ns", "ns", "lower"},
	{"cache.invalidate_dest_us", "us", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions", "count", "lower"},

	{"services.echo_handled", "count", "higher"},
	{"services.ipfwd_handled", "count", "lower"},
	{"services.errored", "count", "lower"},

	{"enclave.crossing_ns_1024", "ns", "lower"},

	{"lookup.resolve_ns", "ns", "lower"},
	{"lookup.register_us", "us", "lower"},
	{"lookup.resolve_under_churn_ns", "ns", "lower"},
	{"lookup.churn_per_s", "1/s", "higher"},
	{"lookup.watch_lag_p99_us", "us", "lower"},

	{"rescache.hit_ns", "ns", "lower"},
	{"rescache.fill_p50_us", "us", "lower"},
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.fills", "count", "lower"},
	{"rescache.fills_discarded", "count", "lower"},
	{"rescache.invalidations", "count", "lower"},

	{"edomain.place_host_ns", "ns", "lower"},
	{"edomain.placement_balance_x1000", "count", "lower"},
	{"peering.encode_transit_ns", "ns", "lower"},
	{"peering.gateway_extra_us", "us", "lower"},

	{"netsim.send_ns", "ns", "lower"},
	{"netsim.send_batch_ns_per_pkt", "ns", "lower"},
	{"netsim.queue_drops", "count", "lower"},
	{"netsim.rx_queue_depth_max", "count", "lower"},
	{"netsim.mux_backlog_max", "count", "lower"},
	{"netsim.udp_send_batch_ns_per_pkt", "ns", "lower"},
	{"netsim.udp_gso_active", "count", "higher"},

	{"host.send_ns", "ns", "lower"},
	{"host.rx_p50_us", "us", "lower"},
	{"host.associate_p50_us", "us", "lower"},
	{"host.unloaded_tail_us", "us", "lower"},
	{"host.unloaded_p99_us", "us", "lower"},
	{"host.unclaimed", "count", "lower"},

	{"tunnel.rotation_us", "us", "lower"},
	{"tunnel.core_fraction_10k", "ratio", "lower"},

	{"load.paced_p50_us", "us", "lower"},
	{"load.paced_p99_us", "us", "lower"},
	{"load.generator_lag_p99_us", "us", "lower"},
	{"load.window_occupancy", "ratio", "higher"},
	{"load.delivered_pps_mean", "1/s", "higher"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.goroutines_steady", "count", "lower"},
	{"go.heap_mb", "MB", "lower"},

	{"budget.psp_share", "ratio", "lower"},
	{"budget.cache_share", "ratio", "lower"},
	{"budget.netsim_share", "ratio", "lower"},
	{"budget.module_share", "ratio", "lower"},
	{"budget.lookup_share", "ratio", "lower"},
	{"budget.host_share", "ratio", "lower"},
	{"budget.unattributed_share", "ratio", "lower"},

	{"trace.overhead_share", "ratio", "lower"},
}

// layerUnit returns a per-layer metric's unit from the table above, so
// that the report, the last line and BENCHMARK.json cannot disagree.
func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("benchmark: " + name + " is not in the per-layer table")
}

// tracedRounds is how many untraced rounds a traced run makes for its
// counts, before the one traced round that yields the spans.
const tracedRounds = 6

// counters is a registry read: counters and gauges summed by full name
// over the chosen registries (those whose key contains only; "/sn" selects
// the service nodes), histograms merged.
type counters struct {
	vals  map[string]float64
	hists map[string]*telemetry.HistogramView
}

func readCounters(regs map[string]telemetry.Snapshot, only string) counters {
	c := counters{vals: make(map[string]float64), hists: make(map[string]*telemetry.HistogramView)}
	for key, snap := range regs {
		if only != "" && !strings.Contains(key, only) {
			continue
		}
		for _, smp := range snap {
			if smp.Hist == nil {
				c.vals[smp.Name] += smp.Value
				continue
			}
			h := c.hists[smp.Name]
			if h == nil {
				h = &telemetry.HistogramView{Bounds: smp.Hist.Bounds, Counts: make([]uint64, len(smp.Hist.Counts))}
				c.hists[smp.Name] = h
			}
			h.Merge(smp.Hist)
		}
	}
	return c
}

// since returns c - before: what was counted in between.
func (c counters) since(before counters) counters {
	d := counters{vals: make(map[string]float64), hists: make(map[string]*telemetry.HistogramView)}
	for k, v := range c.vals {
		d.vals[k] = v - before.vals[k]
	}
	for k, h := range c.hists {
		dh := &telemetry.HistogramView{Bounds: h.Bounds, Counts: append([]uint64(nil), h.Counts...), Sum: h.Sum, Count: h.Count}
		if b := before.hists[k]; b != nil {
			for i := range dh.Counts {
				dh.Counts[i] -= b.Counts[i]
			}
			dh.Sum -= b.Sum
			dh.Count -= b.Count
		}
		d.hists[k] = dh
	}
	return d
}

func (c counters) add(o counters) {
	for k, v := range o.vals {
		c.vals[k] += v
	}
}

// sumPrefix adds every value whose name starts with prefix (all label sets
// of one instrument).
func (c counters) sumPrefix(prefix string) float64 {
	t := 0.0
	for k, v := range c.vals {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

func (c counters) quantile(name string, q float64) float64 {
	return float64(c.hists[name].Quantile(q))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the per-layer run: a few untraced rounds for registry
// counts and the untraced cost per packet, one traced round for the spans,
// then the layers' call rows, the layer budget and the trace file.
func runTraced(cfg *runConfig, res *runResult) error {
	tr := newTracer()
	in, setup, err := buildInstance(cfg, tr, res)
	if err != nil {
		return err
	}
	defer in.close()
	warmOps := in.g.nextOp
	out := res.Metrics
	put := func(name string, v float64, n int) { out[name] = metric{Value: v, Unit: layerUnit(name), N: n} }
	put("pipe.setups_per_s", median(setup.pipesPerS), in.pipes)

	// Untraced rounds: the hooks are installed but inert.
	unit := time.Duration(cfg.seconds * float64(time.Second) / 100)
	paced := phaseSpec{name: "paced", payload: cfg.w.small, single: -1, rate: cfg.w.pacedRate}
	if cfg.sz.latCap < fullSizes.latCap { // smoke sizes: keep the open loop gentle
		paced.rate /= 10
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	regs0 := in.regs()
	all0, sns0 := readCounters(regs0, ""), readCounters(regs0, "/sn")
	w64 := counters{vals: make(map[string]float64)}
	var w64Delivered, w64CPU float64
	rv := make(roundValues)
	var pacedLat, pacedLag []float64
	if in.churn != nil {
		in.churn.start()
	}
	for r := 0; r < tracedRounds; r++ {
		for _, spec := range append(in.phases[:len(in.phases):len(in.phases)], paced) {
			var before counters
			if spec.name == "w64" {
				before = readCounters(in.regs(), "")
			}
			pr, err := in.g.runPhase(spec, unit, 0)
			if err != nil {
				return err
			}
			foldPhase(rv, &pr)
			switch spec.name {
			case "w64":
				w64.add(readCounters(in.regs(), "").since(before))
				w64Delivered += float64(pr.delivered)
				w64CPU += float64(pr.cpu)
			case "paced":
				pacedLat, pacedLag = append(pacedLat, pr.lat...), append(pacedLag, pr.lag...)
			}
		}
	}
	goroutines := runtime.NumGoroutine()
	regs1 := in.regs()
	all, sns := readCounters(regs1, "").since(all0), readCounters(regs1, "/sn").since(sns0)
	runtime.ReadMemStats(&ms1)

	// The traced round.
	var tracedCPU, tracedDelivered float64
	stats := make(map[string]map[string]spanStat)
	for _, spec := range in.phases {
		tr.begin(in.g.nextOp)
		pr, err := in.g.runPhase(spec, unit, tracedPhaseOps)
		if err != nil {
			return err
		}
		pt, err := tr.end(spec.name, in.g.nextOp)
		if err != nil {
			return err
		}
		stats[spec.name] = pt.Stats
		if spec.name == "w64" {
			tracedCPU, tracedDelivered = float64(pr.cpu), float64(pr.delivered)
		}
	}
	if in.churn != nil {
		in.churn.stop()
	}
	res.Attempted += in.g.nextOp - warmOps
	res.Failed = in.g.fail.total()
	res.Correct = res.Failed == 0 && in.g.fail.late.Load() == 0
	checkChurn(in, res)

	one := stats["one"]
	put("sn.residence_p50_us", one["sn.residence"].P50Ns/1e3, one["sn.residence"].N)
	put("sn.residence_p99_us", one["sn.residence"].P99Ns/1e3, one["sn.residence"].N)
	put("host.rx_p50_us", one["host.rx"].P50Ns/1e3, one["host.rx"].N)
	put("netsim.rx_queue_depth_max", float64(tr.rxDepthMax.Load()), 1)
	put("netsim.mux_backlog_max", float64(in.g.backlogMax), 1)
	cpuPerPkt := ratio(w64CPU, w64Delivered) // ns
	put("trace.overhead_share", ratio(ratio(tracedCPU, tracedDelivered)-cpuPerPkt, cpuPerPkt), int(tracedDelivered))

	// Count rows, over the untraced rounds.
	put("pipe.rx_open_batch_p50", sns.quantile("pipe_rx_open_batch_size", 0.5), int(sns.hists["pipe_rx_open_batch_size"].Count))
	put("pipe.tx_flush_batch_p50", sns.quantile("pipe_tx_flush_batch_size", 0.5), int(sns.hists["pipe_tx_flush_batch_size"].Count))
	put("pipe.tx_flush_drops", all.vals["pipe_tx_flush_drops_total"], 1)
	put("pipe.engine_rx_open_errors", all.vals["engine_rx_open_errors_total"], 1)
	put("pipe.engine_rx_no_pipe", all.vals["engine_rx_no_pipe_total"], 1)
	put("sn.fastpath_service_p50_ns", sns.quantile("sn_fastpath_service_ns", 0.5), int(sns.hists["sn_fastpath_service_ns"].Count))
	put("sn.fastpath_service_p99_ns", sns.quantile("sn_fastpath_service_ns", 0.99), int(sns.hists["sn_fastpath_service_ns"].Count))
	put("sn.fastpath_share", ratio(all.vals["sn_fastpath_hits_total"], all.vals["sn_rx_packets_total"]), int(all.vals["sn_rx_packets_total"]))
	put("sn.slowpath_sent", all.vals["sn_slowpath_sent_total"], 1)
	put("sn.requeued", all.vals["sn_requeued_total"], 1)
	put("sn.requeue_drops", all.vals["sn_requeue_drops_total"], 1)
	put("sn.module_shed", all.sumPrefix("sn_module_shed_total"), 1)
	put("cache.hit_ratio", ratio(all.vals["cache_hits_total"], all.vals["cache_hits_total"]+all.vals["cache_misses_total"]), int(all.vals["cache_hits_total"]+all.vals["cache_misses_total"]))
	put("cache.evictions", all.vals["cache_evictions_total"], 1)
	put("services.echo_handled", all.vals[telemetry.Name("sn_module_handled_total", "module", "echo")], 1)
	put("services.ipfwd_handled", all.vals[telemetry.Name("sn_module_handled_total", "module", "ipfwd")], 1)
	put("services.errored", all.sumPrefix("sn_module_errored_total"), 1)
	lookups := all.vals["lookup_cache_hits_total"] + all.vals["lookup_cache_misses_total"]
	put("rescache.hit_ratio", ratio(all.vals["lookup_cache_hits_total"], lookups), int(lookups))
	put("rescache.fills", all.vals["lookup_cache_fills_total"], 1)
	put("rescache.fills_discarded", all.vals["lookup_cache_fills_discarded_total"], 1)
	put("rescache.invalidations", all.vals["lookup_cache_invalidations_total"], 1)
	put("netsim.queue_drops", all.vals["netsim_dropped_queue_total"], 1)
	put("host.unclaimed", float64(in.unclaimed()), 1)
	put("host.unloaded_tail_us", median(rv["host.unloaded_tail_us"]), int(median(rv["unloaded_n"])))
	put("host.unloaded_p99_us", median(rv["host.unloaded_p99_us"]), int(median(rv["unloaded_n"])))
	put("load.window_occupancy", median(rv["load.window_occupancy"]), tracedRounds)
	put("load.delivered_pps_mean", median(rv["load.delivered_pps_mean"]), tracedRounds)
	pl := reduceTimings(pacedLat)
	put("load.paced_p50_us", pl.P50/1e3, pl.N)
	put("load.paced_p99_us", pl.P99/1e3, pl.N)
	put("load.generator_lag_p99_us", reduceTimings(pacedLag).P99/1e3, len(pacedLag))
	res.note("open loop at %.0f operations/s, timed from the due time: a diagnostic, not gated", paced.rate)
	put("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, int(ms1.NumGC-ms0.NumGC))
	put("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), 1)
	put("go.goroutines_steady", float64(goroutines), 1)
	put("go.heap_mb", float64(ms1.HeapAlloc)/1e6, 1)

	// One drain and reactivation of a fleet SN, after the timed window.
	put("sn.drain_ms", 0, 0)
	put("sn.handoff_pipes_per_s", 0, 0)
	if in.fleet != nil {
		if err := measureDrain(in, res, put); err != nil {
			return err
		}
	}

	// Call rows, on their own topologies: the workload's is torn down
	// first so that its goroutines and heap do not weigh on them.
	in.close()
	lc := &layerCtx{unit: unit, small: cfg.w.small, cacheSize: in.cacheSize, out: out}
	runLayerCalls(lc)
	res.Notes = append(res.Notes, lc.notes...)
	if out["lookup.churn_per_s"].Value <= 0 {
		res.Correct = false
		res.note("lookup.churn_per_s is 0: resolve_under_churn_ns was measured without churn")
	}

	// The layer budget of the window-64 phase.
	budget(lc, w64, w64Delivered, cpuPerPkt, res)

	for _, m := range perLayer {
		if _, ok := out[m.name]; !ok {
			return fmt.Errorf("%s: per-layer metric %s was not measured", cfg.w.name, m.name)
		}
	}
	path, err := tr.write(cfg.outDir, cfg.w.name, cfg.seed)
	if err != nil {
		return err
	}
	res.note("spans written to %s", path)
	return nil
}

// measureDrain live-drains one non-gateway SN of the fleet and reactivates
// it, timing the drain and counting the pipes handed off, then checks that
// traffic still flows.
func measureDrain(in *instance, res *runResult, put func(string, float64, int)) error {
	target := in.fleet.Ed.SNs[len(in.fleet.Ed.SNs)-1].Addr()
	before := readCounters(in.regs(), "/sn").vals["sn_handoff_pipes_total"]
	t0 := time.Now()
	if err := in.fleet.Place.DrainSN(target); err != nil {
		return fmt.Errorf("drain %s: %w", target, err)
	}
	took := time.Since(t0)
	moved := readCounters(in.regs(), "/sn").vals["sn_handoff_pipes_total"] - before
	put("sn.drain_ms", float64(took)/1e6, 1)
	put("sn.handoff_pipes_per_s", moved/took.Seconds(), int(moved))
	if err := in.fleet.Place.Reactivate(target); err != nil {
		return fmt.Errorf("reactivate %s: %w", target, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !placementSettled(in) {
		if time.Now().After(deadline) {
			return fmt.Errorf("placement did not settle after reactivating %s", target)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Every host is back on its ring owner; the flows' first hops hold.
	ops0 := in.g.nextOp
	pr, err := in.g.runPhase(in.phases[0], 0, 1024)
	if err != nil {
		return err
	}
	res.Attempted += in.g.nextOp - ops0
	if pr.failed > 0 || pr.delivered != 1024 {
		res.Failed += pr.failed
		res.Correct = false
		res.note("after drain and reactivation %d of 1024 packets were delivered", pr.delivered)
	}
	return nil
}

func placementSettled(in *instance) bool {
	for _, h := range in.fleet.Hosts {
		want, ok := in.fleet.Ed.Core.PlaceHost(h.Addr())
		if !ok {
			return false
		}
		if got, ok := in.fleet.Place.PlacedOn(h.Addr()); !ok || got != want {
			return false
		}
		if fh, err := h.FirstHop(); err != nil || fh != want {
			return false
		}
	}
	return true
}

// budget splits the window-64 phase's CPU per delivered packet over the
// layers: operations counted in the registries times the layer's call
// cost. What no call row explains — queueing, goroutine hand-offs,
// scheduling, the receive side of the host stack, GC — is unattributed.
func budget(lc *layerCtx, w64 counters, delivered, cpuPerPkt float64, res *runResult) {
	per := func(ns float64) float64 { return ratio(ratio(ns, delivered), cpuPerPkt) }
	v := w64.vals
	shares := map[string]float64{
		"psp":    per(v["netsim_delivered_total"] * (lc.cost.seal + lc.cost.open)),
		"cache":  per(v["cache_hits_total"]*lc.cost.cacheHit + v["cache_misses_total"]*lc.cost.cacheMiss + v["cache_inserts_total"]*lc.cost.cacheAdd),
		"netsim": per(v["netsim_sent_total"] * lc.cost.netsimSend),
		"module": per(v["sn_slowpath_sent_total"] * lc.cost.inject),
		"lookup": per(v["lookup_cache_hits_total"]*lc.cost.rescacheHit + v["lookup_cache_fills_total"]*lc.cost.rescacheFill),
	}
	// The host stack's own share of a send: the call minus the seal and the
	// fabric hand-off already counted above.
	if own := lc.cost.hostSend - lc.cost.seal - lc.cost.netsimSend; own > 0 {
		shares["host"] = per(delivered * own)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum > 1 {
		// The call rows, measured alone with warm caches on an idle core,
		// can overshoot a pipeline that batches: scale to the whole.
		res.note("layer budget: call costs sum to %.2f of the measured CPU per packet; shares are scaled to 1", sum)
		for k := range shares {
			shares[k] /= sum
		}
		sum = 1
	}
	for _, k := range []string{"psp", "cache", "netsim", "module", "lookup", "host"} {
		lc.put("budget."+k+"_share", shares[k], int(delivered))
	}
	lc.put("budget.unattributed_share", 1-sum, int(delivered))
}
