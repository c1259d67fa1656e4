package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total"); again != c {
		t.Fatal("Counter is not idempotent for the same name")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	snap := r.Snapshot()
	if v := snap.Value("x_total"); v != 5 {
		t.Fatalf("snapshot x_total = %v, want 5", v)
	}
	if v := snap.Value("depth"); v != 4 {
		t.Fatalf("snapshot depth = %v, want 4", v)
	}
}

// TestValueOfAbsentNamePanics: a checked read. A present name reads its
// value; an absent one panics with the name, so a misspelled metric in an
// assertion fails instead of reading 0.
func TestValueOfAbsentNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("present_total").Add(2)
	snap := r.Snapshot()
	if v := snap.Value("present_total"); v != 2 {
		t.Fatalf("present_total = %v, want 2", v)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Value of an absent name returned instead of panicking")
		}
		if msg, _ := v.(string); !strings.Contains(msg, "absent_total") {
			t.Fatalf("panic %v does not name the instrument", v)
		}
	}()
	snap.Value("absent_total")
}

func TestRegisterConflicts(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("dup")
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(c); err != nil {
		t.Fatalf("re-registering the same instrument should be a no-op, got %v", err)
	}
	if err := r.Register(NewCounter("dup")); err == nil {
		t.Fatal("registering a different instrument under a taken name must error")
	}
}

func TestSharedInstrumentAcrossRegistries(t *testing.T) {
	// A component-owned instrument registered into two registries (its own
	// and the node's) is one counter: both snapshots see every increment.
	c := NewCounter("shared_total")
	r1, r2 := NewRegistry(), NewRegistry()
	r1.MustRegister(c)
	r2.MustRegister(c)
	c.Add(3)
	if v := r1.Snapshot().Value("shared_total"); v != 3 {
		t.Fatalf("r1 sees %v, want 3", v)
	}
	if v := r2.Snapshot().Value("shared_total"); v != 3 {
		t.Fatalf("r2 sees %v, want 3", v)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram("lat_ns", []uint64{10, 100, 1000})
	for _, v := range []uint64{1, 5, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	s := h.Sample()
	hv := s.Hist
	want := []uint64{3, 3, 0, 1} // ≤10: {1,5,10}; ≤100: {11,99,100}; ≤1000: none; overflow: 5000
	for i, c := range hv.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, c, want[i], hv.Counts)
		}
	}
	if hv.Count != 7 || hv.Sum != 1+5+10+11+99+100+5000 {
		t.Fatalf("count=%d sum=%d", hv.Count, hv.Sum)
	}
	if q := hv.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := hv.Quantile(0.99); q != 1000 {
		t.Fatalf("p99 = %d, want 1000 (overflow reports largest bound)", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram("h", []uint64{10, 100})
	b := NewHistogram("h", []uint64{10, 100})
	a.Observe(5)
	b.Observe(50)
	b.Observe(500)
	av, bv := a.Sample().Hist, b.Sample().Hist
	av.Merge(bv)
	if av.Count != 3 || av.Sum != 555 {
		t.Fatalf("merged count=%d sum=%d", av.Count, av.Sum)
	}
	if av.Counts[0] != 1 || av.Counts[1] != 1 || av.Counts[2] != 1 {
		t.Fatalf("merged counts %v", av.Counts)
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	var hits uint64 = 42
	r.MustRegister(NewCounterFunc("cache_hits_total", func() uint64 { return hits }))
	r.MustRegister(NewGaugeFunc("cache_entries", func() int64 { return -1 }))
	snap := r.Snapshot()
	if v := snap.Value("cache_hits_total"); v != 42 {
		t.Fatalf("func counter = %v", v)
	}
	if v := snap.Value("cache_entries"); v != -1 {
		t.Fatalf("func gauge = %v", v)
	}
}

func TestLabeledNames(t *testing.T) {
	n := Name("sn_module_handled_total", "module", "echo")
	if n != `sn_module_handled_total{module="echo"}` {
		t.Fatalf("Name = %s", n)
	}
	if got := Name("x", "k", `a"b\c`); got != `x{k="a\"b\\c"}` {
		t.Fatalf("escaped Name = %s", got)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Counter(Name("mod_total", "module", "echo")).Add(1)
	h := r.Histogram("lat", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b, "node", "fd00::1"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		`a_total{node="fd00::1"} 2`,
		`mod_total{module="echo",node="fd00::1"} 1`,
		"# TYPE lat histogram",
		`lat_bucket{node="fd00::1",le="10"} 1`,
		`lat_bucket{node="fd00::1",le="100"} 2`,
		`lat_bucket{node="fd00::1",le="+Inf"} 2`,
		`lat_sum{node="fd00::1"} 55`,
		`lat_count{node="fd00::1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(9)
	r.Histogram("h", []uint64{1}).Observe(1)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if v := back.Value("c_total"); v != 9 {
		t.Fatalf("round-tripped c_total = %v", v)
	}
	s, ok := back.Get("h")
	if !ok || s.Kind != KindHistogram || s.Hist.Count != 1 {
		t.Fatalf("round-tripped histogram: %+v", s)
	}
}

// TestRegistryConcurrency is the race-detector regression test the
// registry is gated on: concurrent register, observe, and snapshot must be
// data-race free (scripts/check.sh runs this package under -race).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			c := r.Counter("shared_total")
			g := r.Gauge("shared_gauge")
			h := r.Histogram("shared_hist", LatencyBuckets)
			own := r.Counter(Name("worker_total", "w", string(rune('a'+w))))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(uint64(i))
				own.Inc()
				if i%101 == 0 {
					_ = r.Snapshot()
				}
				if i%257 == 0 {
					_ = r.Register(NewCounterFunc(
						Name("fn_total", "w", string(rune('a'+w))),
						func() uint64 { return uint64(i) }))
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	snap := r.Snapshot()
	if v := snap.Value("shared_total"); v != workers*iters {
		t.Fatalf("shared_total = %v, want %d", v, workers*iters)
	}
	s, _ := snap.Get("shared_hist")
	if s.Hist.Count != workers*iters {
		t.Fatalf("hist count = %d, want %d", s.Hist.Count, workers*iters)
	}
}
