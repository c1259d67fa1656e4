// Package telemetry is the node-wide metrics registry: one uniform home
// for every counter, gauge, and latency histogram the data path and the
// slow path maintain, under one naming scheme and read through one snapshot
// path: no layer keeps a second stats struct beside its instruments.
//
// Design constraints, in order:
//
//   - Hot-path observation is allocation-free and lock-free: counters and
//     gauges are single atomics, histograms are fixed-bucket atomic arrays.
//     Instrument handles are obtained once at setup time and then used like
//     plain atomic fields.
//   - Instruments are standalone values registered into one or more
//     registries, so a component (e.g. a UDP transport created before its
//     SN) can own its instruments and later expose them through the node's
//     registry via the Registrable interface.
//   - Snapshots read each instrument atomically. The consistency contract
//     is per-instrument, not cross-instrument: a snapshot taken while the
//     data path runs shows every individual value at some true instant,
//     but two instruments may be read at slightly different instants (e.g.
//     forwarded may momentarily exceed rx_packets by in-flight packets).
//     Histogram snapshots are per-bucket atomic; sum/count may lag the
//     buckets by in-flight observations.
//
// Naming scheme (see DESIGN.md "Observability"): instruments are named
// `layer_subsystem_metric[_total]` in snake_case — `pipe_tx_batches_total`,
// `sn_fastpath_hits_total`, `cache_evictions_total`. Monotonic counters end
// in `_total`; gauges and histograms do not. Per-entity instruments carry a
// Prometheus-style label block built with Name, e.g.
// `sn_module_handled_total{module="echo"}`.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates instrument behavior in snapshots and exposition.
type Kind uint8

const (
	// KindCounter is a monotonically increasing uint64.
	KindCounter Kind = iota
	// KindGauge is an instantaneous int64 (may go down).
	KindGauge
	// KindHistogram is a fixed-bucket distribution of uint64 observations.
	KindHistogram
)

// MarshalJSON renders the kind as its name, so control-plane metrics
// responses read "counter"/"gauge"/"histogram" rather than enum ordinals.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the kind name (operator tooling round trip).
func (k *Kind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"counter"`:
		*k = KindCounter
	case `"gauge"`:
		*k = KindGauge
	case `"histogram"`:
		*k = KindHistogram
	default:
		return fmt.Errorf("telemetry: unknown kind %s", b)
	}
	return nil
}

// String names the kind for snapshots and the text exposition.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind-%d", uint8(k))
	}
}

// Instrument is anything a Registry can hold: a name plus the ability to
// produce one atomically read Sample.
type Instrument interface {
	// InstrumentName returns the registered name (including any label
	// block).
	InstrumentName() string
	// Sample reads the instrument's current value. The read is atomic per
	// the package consistency contract.
	Sample() Sample
}

// Registrable is implemented by components that own instruments and can
// expose them through an externally supplied registry — e.g. a transport
// created before the SN that will serve its metrics. RegisterTelemetry may
// be called more than once with different registries; instruments are
// shared, not copied.
type Registrable interface {
	RegisterTelemetry(r *Registry)
}

// --- Counter -----------------------------------------------------------------

// Counter is a monotonically increasing counter. The zero value is not
// usable; create one with NewCounter or Registry.Counter.
type Counter struct {
	name string
	v    atomic.Uint64
}

// NewCounter creates a standalone (unregistered) counter.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// InstrumentName implements Instrument.
func (c *Counter) InstrumentName() string { return c.name }

// Sample implements Instrument (one atomic load).
func (c *Counter) Sample() Sample {
	return Sample{Name: c.name, Kind: KindCounter, Value: float64(c.v.Load())}
}

// --- StripedCounter ----------------------------------------------------------

// stripedCell pads each counter cell to its own cache line so stripes
// written from different cores never false-share.
type stripedCell struct {
	v atomic.Uint64
	_ [56]byte
}

// StripedCounter is a monotonic counter sharded across padded cells.
// Hot paths that increment one logical counter from many cores at once
// (e.g. per-resolve accounting in the lookup read path) pick a stripe —
// typically derived from the key they are working on — so concurrent
// increments land on different cache lines instead of contending on a
// single atomic. Sample and Load sum the cells.
type StripedCounter struct {
	name  string
	cells []stripedCell
	mask  int
}

// NewStripedCounter creates a standalone striped counter. stripes is
// rounded up to the next power of two (minimum 1) so stripe selection
// is a mask, not a modulo.
func NewStripedCounter(name string, stripes int) *StripedCounter {
	n := 1
	for n < stripes {
		n <<= 1
	}
	return &StripedCounter{name: name, cells: make([]stripedCell, n), mask: n - 1}
}

// Add increments the counter by n on the given stripe (reduced by mask,
// so any int is a valid stripe).
func (c *StripedCounter) Add(stripe int, n uint64) { c.cells[stripe&c.mask].v.Add(n) }

// Inc increments the counter by one on the given stripe.
func (c *StripedCounter) Inc(stripe int) { c.cells[stripe&c.mask].v.Add(1) }

// Load sums the stripes. Each cell is read atomically; the sum is
// monotonic across calls because every cell is.
func (c *StripedCounter) Load() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// InstrumentName implements Instrument.
func (c *StripedCounter) InstrumentName() string { return c.name }

// Sample implements Instrument (per-cell atomic reads, summed).
func (c *StripedCounter) Sample() Sample {
	return Sample{Name: c.name, Kind: KindCounter, Value: float64(c.Load())}
}

// --- Gauge -------------------------------------------------------------------

// Gauge is an instantaneous value that may go up or down.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge creates a standalone (unregistered) gauge.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// InstrumentName implements Instrument.
func (g *Gauge) InstrumentName() string { return g.name }

// Sample implements Instrument (one atomic load).
func (g *Gauge) Sample() Sample {
	return Sample{Name: g.name, Kind: KindGauge, Value: float64(g.v.Load())}
}

// --- Histogram ---------------------------------------------------------------

// Histogram is a fixed-bucket distribution of uint64 observations (latency
// in nanoseconds, batch sizes, ...). Bucket bounds are upper-inclusive and
// fixed at construction; observation is a linear scan over the bounds plus
// three atomic adds — no locks, no allocation.
type Histogram struct {
	name   string
	bounds []uint64 // sorted ascending; counts has len(bounds)+1 (overflow)
	counts []atomic.Uint64
	sum    atomic.Uint64
	count  atomic.Uint64
}

// LatencyBuckets is the default bound set for nanosecond latency
// histograms: 16 exponential buckets from 256ns to 8.4ms, then overflow.
var LatencyBuckets = expBuckets(256, 2, 16)

// BatchBuckets is the default bound set for batch-size histograms:
// 1, 2, 4, ..., 256, then overflow.
var BatchBuckets = expBuckets(1, 2, 9)

func expBuckets(start, factor uint64, n int) []uint64 {
	b := make([]uint64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// NewHistogram creates a standalone histogram with the given upper bounds
// (which must be sorted ascending and non-empty).
func NewHistogram(name string, bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be sorted ascending")
		}
	}
	return &Histogram{
		name:   name,
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Allocation-free and lock-free.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// InstrumentName implements Instrument.
func (h *Histogram) InstrumentName() string { return h.name }

// Sample implements Instrument. Buckets are read individually-atomically;
// sum and count may lag in-flight observations (per-instrument contract).
func (h *Histogram) Sample() Sample {
	hv := &HistogramView{
		Bounds: h.bounds, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		hv.Counts[i] = c
		total += c
	}
	// Derive Count from the buckets read so quantiles computed from the
	// view are internally consistent even mid-observation.
	hv.Count = total
	return Sample{Name: h.name, Kind: KindHistogram, Hist: hv}
}

// --- Func instruments --------------------------------------------------------

// funcInstrument adapts a read callback into an Instrument, for values that
// already live elsewhere (merged per-shard cache counters, queue depths,
// breaker states). The callback runs at snapshot time and must not call
// back into the registry it is registered in.
type funcInstrument struct {
	name string
	kind Kind
	fn   func() float64
}

func (f *funcInstrument) InstrumentName() string { return f.name }
func (f *funcInstrument) Sample() Sample {
	return Sample{Name: f.name, Kind: f.kind, Value: f.fn()}
}

// NewCounterFunc creates a lazily read counter-kind instrument backed by fn
// (which must return a monotonic value).
func NewCounterFunc(name string, fn func() uint64) Instrument {
	return &funcInstrument{name: name, kind: KindCounter, fn: func() float64 { return float64(fn()) }}
}

// NewGaugeFunc creates a lazily read gauge-kind instrument backed by fn.
func NewGaugeFunc(name string, fn func() int64) Instrument {
	return &funcInstrument{name: name, kind: KindGauge, fn: func() float64 { return float64(fn()) }}
}

// --- Naming ------------------------------------------------------------------

// Name builds a labeled instrument name: Name("x_total", "module", "echo")
// returns `x_total{module="echo"}`. Pairs are key, value, key, value...
// Label values are quoted with escaping per the Prometheus text format.
func Name(base string, labelPairs ...string) string {
	if len(labelPairs) == 0 {
		return base
	}
	if len(labelPairs)%2 != 0 {
		panic("telemetry: Name needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(labelPairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelPairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labelPairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitName separates a (possibly labeled) instrument name into its base
// and label block: `a{b="c"}` → `a`, `{b="c"}`.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// --- Registry ----------------------------------------------------------------

// Registry is one node's instrument table. Registration takes a lock;
// observation through instrument handles never touches the registry.
type Registry struct {
	mu   sync.Mutex
	inst map[string]Instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{inst: make(map[string]Instrument)}
}

// Register adds instruments to the registry. Registering the same
// instrument value again is a no-op; registering a different instrument
// under an already taken name returns an error (and registers the rest).
func (r *Registry) Register(insts ...Instrument) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	for _, in := range insts {
		name := in.InstrumentName()
		if prev, ok := r.inst[name]; ok {
			if prev != in && err == nil {
				err = fmt.Errorf("telemetry: instrument %q already registered", name)
			}
			continue
		}
		r.inst[name] = in
	}
	return err
}

// MustRegister is Register that panics on a name conflict (programmer
// error: two different instruments may not share a name).
func (r *Registry) MustRegister(insts ...Instrument) {
	if err := r.Register(insts...); err != nil {
		panic(err)
	}
}

// Counter returns the registered counter with the given name, creating and
// registering it if absent. Panics if the name is taken by a non-counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.inst[name]; ok {
		c, ok := in.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q is not a counter", name))
		}
		return c
	}
	c := NewCounter(name)
	r.inst[name] = c
	return c
}

// Gauge returns the registered gauge with the given name, creating and
// registering it if absent. Panics if the name is taken by a non-gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.inst[name]; ok {
		g, ok := in.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q is not a gauge", name))
		}
		return g
	}
	g := NewGauge(name)
	r.inst[name] = g
	return g
}

// Histogram returns the registered histogram with the given name, creating
// and registering one with the given bounds if absent. Panics if the name
// is taken by a non-histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.inst[name]; ok {
		h, ok := in.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q is not a histogram", name))
		}
		return h
	}
	h := NewHistogram(name, bounds)
	r.inst[name] = h
	return h
}

// Snapshot reads every registered instrument, each atomically, and returns
// the samples sorted by name. The callback-backed instruments run outside
// the registry lock, so collectors may take their own locks but must not
// touch this registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	insts := make([]Instrument, 0, len(r.inst))
	for _, in := range r.inst {
		insts = append(insts, in)
	}
	r.mu.Unlock()
	out := make(Snapshot, 0, len(insts))
	for _, in := range insts {
		out = append(out, in.Sample())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
