package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rounds is how many times a run repeats its timed phases; every reported
// value is the median over rounds.
const rounds = 30

// endToEnd lists the end-to-end metrics, in report order, with the share of
// the parent's median by which each may worsen. This 2-CPU virtual machine
// shares its host: for minutes at a time up to a third of its CPU time goes
// to other tenants (steal in /proc/stat), which halves a mean rate over
// wall time and triples a p99. The gated metrics are therefore the ones that
// hold still across that: medians of per-operation times, rates over short
// blocks of deliveries (blockRate), the fastest of several set-ups, CPU
// time and counts. Over ten seeds the timings spread (IQR / median) by 3
// to 12 % on most pairs of metric and workload (BASELINE.md), and by up to
// 23 % when the box has one of its slow minutes, which come without steal
// and slow every timing of a run by 40 %; so every timing gets the widest
// bound the driver allows. The two counts repeat to a fraction of a
// percent. The mean rate and the p99 are per-layer rows
// (load.delivered_pps_mean, host.unloaded_p99_us). fail_ratio is not a
// metric: its seed value is 0, which a relative bound cannot gate, so
// failures are the run's failed/attempted counts instead.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"delivered_pps", "1/s", "higher", 0.25},
	{"goodput_mbps", "Mbit/s", "higher", 0.25},
	{"unloaded_p50_us", "us", "lower", 0.25},
	{"first_packet_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_pkt", "us", "lower", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.05},
	{"heap_kb_per_host", "KiB", "lower", 0.05},
}

// envInfo is recorded in every output.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Links      string `json:"links"`
}

func currentEnv() envInfo {
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Links:      "in-process netsim fabric, clean links; no real link is crossed (netsim.udp_* rows are loopback)",
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`   // samples (rounds, or operations for a call row)
	IQR   float64 `json:"iqr,omitempty"` // relative IQR over rounds
}

// runConfig describes one run of one workload.
type runConfig struct {
	w       *workloadDef
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	outDir  string
}

// runResult is one run's outcome: the driver's last line plus what the
// human-readable report and -compare need.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Rounds keeps every round's value of the end-to-end metrics in
	// results.jsonl, for telling a noisy run from a shifted one.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
	Notes  []string             `json:"notes,omitempty"`
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle empties sync.Pool victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// roundValues holds one value per round for each end-to-end metric.
type roundValues map[string][]float64

func (rv roundValues) add(name string, v float64) { rv[name] = append(rv[name], v) }

// foldPhase turns one phase result into that round's metric values.
func foldPhase(rv roundValues, res *phaseResult) {
	if res.delivered == 0 {
		return
	}
	switch res.spec.name {
	case "w64":
		rv.add("delivered_pps", res.rate)
		rv.add("load.delivered_pps_mean", float64(res.delivered)/res.wall.Seconds())
		rv.add("cpu_us_per_pkt", float64(res.cpu.Microseconds())/float64(res.delivered))
		rv.add("allocs_per_pkt", float64(res.mallocs)/float64(res.delivered))
		rv.add("load.window_occupancy", res.occupancy)
	case "w64-1024":
		rv.add("goodput_mbps", res.rate*float64(res.spec.payload)*8/1e6)
	case "one":
		ts := reduceTimings(res.lat)
		rv.add("unloaded_p50_us", ts.P50/1e3)
		rv.add("host.unloaded_p99_us", ts.P99/1e3)
		rv.add("host.unloaded_tail_us", ts.TopV/1e3)
		rv.add("host.unloaded_tail_q", ts.TopQ)
		rv.add("unloaded_n", float64(ts.N))
	case "first":
		rv.add("first_packet_p50_us", reduceTimings(res.lat).P50/1e3)
	}
}

// setupStats is what building a workload measured.
type setupStats struct {
	seconds   []float64 // one whole set-up each
	pipesPerS []float64 // host pipes established per second of each adoption wave
	heapBase  uint64    // live heap before the set-up that was kept
}

// setupBudget is the time a run may spend on repeated set-ups beyond the
// minimum: a workload that sets up in a tenth of a second is set up more
// often, so that its setup_s is as steady as a slow one's.
const setupBudget = 3 * time.Second

// buildInstance sets the workload up at least cfg.sz.setups times (more,
// up to cfg.sz.maxSetups, while they fit setupBudget) and keeps the last
// one; every set-up is timed whole (topology, real handshakes, rule
// install, fixed-count warm-up).
func buildInstance(cfg *runConfig, tr *tracer, res *runResult) (*instance, setupStats, error) {
	var st setupStats
	var in *instance
	n := cfg.sz.setups
	if tr != nil {
		n = 1
	}
	samples := newSampleArrays(cfg.sz.latCap)
	for i := 0; i < n; i++ {
		if i == 1 && tr == nil {
			if fit := int(setupBudget.Seconds() / st.seconds[0]); fit > n {
				n = min(fit, cfg.sz.maxSetups)
			}
		}
		if i == n-1 {
			st.heapBase = heapAlloc()
		}
		env := &runEnv{seed: cfg.seed, sz: cfg.sz, samples: samples}
		if i == n-1 {
			env.tr = tr
		}
		t0 := time.Now()
		inst, err := cfg.w.setup(env)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, st, fmt.Errorf("%s: set-up: %w", cfg.w.name, err)
		}
		st.seconds = append(st.seconds, time.Since(t0).Seconds())
		st.pipesPerS = append(st.pipesPerS, float64(inst.pipes)/inst.connect.Seconds())
		res.Attempted += inst.g.nextOp
		if i < n-1 {
			inst.close()
			continue
		}
		in = inst
	}
	return in, st, nil
}

// runWorkload runs one workload once and returns its result. With trace
// off the metrics are the end-to-end ones; with trace on, the per-layer
// ones.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Env: currentEnv(), Metrics: make(map[string]metric), Rounds: make(map[string][]float64),
	}
	stolen0, total0 := cpuStolen()
	run := runEndToEnd
	if cfg.trace {
		run = runTraced
	}
	if err := run(&cfg, res); err != nil {
		return nil, err
	}
	if stolen, total := cpuStolen(); total > total0 {
		res.note("box: %.0f%% of the machine's CPU time went to other virtual machines during this run (steal in /proc/stat)",
			float64(stolen-stolen0)/float64(total-total0)*100)
	}
	return res, nil
}

// cpuStolen reads how much CPU time the machine has had so far and how much
// of it the hypervisor gave to other virtual machines, both in clock ticks
// (Linux /proc/stat; zeros elsewhere). The share stolen during a run is
// printed with it: it says how far that run's wall-clock numbers can be
// trusted.
func cpuStolen() (stolen, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already part of user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

// runEndToEnd is the untraced run: repeated set-ups, then the timed rounds.
func runEndToEnd(cfg *runConfig, res *runResult) error {
	in, setup, err := buildInstance(cfg, nil, res)
	if err != nil {
		return err
	}
	defer in.close()
	warmOps := in.g.nextOp

	slice := time.Duration(cfg.seconds * float64(time.Second) / float64(rounds*len(in.phases)))
	rv := make(roundValues)
	if in.churn != nil {
		in.churn.start()
	}
	for r := 0; r < rounds; r++ {
		for _, spec := range in.phases {
			pr, err := in.g.runPhase(spec, slice, 0)
			if err != nil {
				return err
			}
			foldPhase(rv, &pr)
		}
	}
	if in.churn != nil {
		in.churn.stop()
	}
	res.Attempted += in.g.nextOp - warmOps
	res.Failed = in.g.fail.total()
	res.Correct = res.Failed == 0 && in.g.fail.late.Load() == 0
	checkChurn(in, res)

	heap := heapAlloc()
	put := func(name, unit string, s summary) {
		res.Metrics[name] = metric{Value: s.Value, Unit: unit, N: s.N, IQR: s.IQR}
	}
	for _, m := range endToEnd {
		switch m.name {
		case "setup_s":
			// The fastest set-up, not the median: what else runs on the box
			// only ever adds time, and under it the median of a run's
			// set-ups moved by half where the fastest moved by a seventh.
			sum := summarize(setup.seconds)
			sum.Value = slices.Min(setup.seconds)
			put(m.name, m.unit, sum)
		case "heap_kb_per_host":
			kb := 0.0
			if heap > setup.heapBase {
				kb = float64(heap-setup.heapBase) / 1024 / float64(in.hosts)
			}
			res.Metrics[m.name] = metric{Value: kb, Unit: m.unit, N: 1}
		default:
			put(m.name, m.unit, summarize(rv[m.name]))
			res.Rounds[m.name] = rv[m.name]
		}
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.name].Value; !(v > 0) {
			res.Correct = false
			res.note("%s is %v: every end-to-end metric must be measured", m.name, v)
		}
	}
	if q := rv["host.unloaded_tail_q"]; len(q) > 0 {
		res.note("unloaded latency: %d samples per round; p99 = %.1f us; highest percentile with >=%d samples beyond it: p%g = %.1f us",
			int(median(rv["unloaded_n"])), median(rv["host.unloaded_p99_us"]), minTailSamples, median(q)*100, median(rv["host.unloaded_tail_us"]))
	}
	if m := rv["load.delivered_pps_mean"]; len(m) > 0 {
		res.note("delivered_pps is the rate of the faster quarter of %d-delivery blocks; the mean rate over the w64 phases was %.0f/s",
			rateBlock, median(m))
	}
	res.note("failures by cause: corrupt=%d duplicate=%d misrouted=%d timed-out=%d send-error=%d late=%d; reordered (not a failure)=%d",
		in.g.fail.corrupt.Load(), in.g.fail.duplicate.Load(), in.g.fail.misrouted.Load(),
		in.g.fail.timedOut.Load(), in.g.fail.sendErr.Load(), in.g.fail.late.Load(), in.g.reordered.Load())
	return nil
}

// checkChurn applies fleet-churn's gate: both kinds of write must reach
// 90 % of their schedule (and so be more than none), or the reads were not
// measured beside writes.
func checkChurn(in *instance, res *runResult) {
	if in.churn == nil {
		return
	}
	c := in.churn
	pub, red := c.achieved()
	res.note("churn: %d republishes (one per %d deliveries, %.0f%% of schedule, %.0f/s), %d redials (one per %d, %.0f%%, %.0f/s), %d errors",
		c.published.Load(), c.publishEvery, pub*100, float64(c.published.Load())/c.ran.Seconds(),
		c.redialed.Load(), c.redialEvery, red*100, float64(c.redialed.Load())/c.ran.Seconds(), c.errors.Load())
	if pub < 0.9 || red < 0.9 || c.errors.Load() > 0 {
		res.Correct = false
		res.note("churn below 90%% of its schedule or failing: the run is not valid")
	}
}

// report prints a result for people: every metric by name with its unit,
// sample count and relative IQR.
func (r *runResult) report(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  measured %.0fs\n", r.Workload, r.Seed, kind, r.Seconds)
	fmt.Fprintf(w, "   nproc=%d GOMAXPROCS=%d %s; links: %s\n", r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Links)
	names := make([]string, 0, len(r.Metrics))
	if r.Trace {
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
	} else {
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-34s %14.4f %-7s n=%-7d iqr=%.3f\n", n, m.Value, m.Unit, m.N, m.IQR)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// lastLine is the driver's contract: one JSON object with exactly these
// keys, each metric reduced to value and unit.
func (r *runResult) lastLine() map[string]any {
	ms := make(map[string]any, len(r.Metrics))
	for n, m := range r.Metrics {
		ms[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
