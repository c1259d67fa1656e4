package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Sample is one instrument's atomically read value. Counters and gauges
// use Value; histograms use Hist.
type Sample struct {
	Name  string         `json:"name"`
	Kind  Kind           `json:"kind"`
	Value float64        `json:"value,omitempty"`
	Hist  *HistogramView `json:"hist,omitempty"`
}

// HistogramView is a histogram sample: cumulative-free per-bucket counts
// plus sum and count. Counts has one more element than Bounds (overflow).
type HistogramView struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the bucket bound at which the cumulative count reaches q*Count. Values in
// the overflow bucket report the largest bound. Returns 0 with no
// observations.
func (h *HistogramView) Quantile(q float64) uint64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if float64(target) < q*float64(h.Count) {
		target++ // rank is ceil(q·count)
	}
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Merge accumulates another view with identical bounds into h (used to
// combine per-worker histograms after a run).
func (h *HistogramView) Merge(other *HistogramView) {
	if other == nil {
		return
	}
	if len(h.Counts) != len(other.Counts) {
		panic("telemetry: merging histograms with different bucket layouts")
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Sum += other.Sum
	h.Count += other.Count
}

// Snapshot is a point-in-time read of a registry, sorted by instrument
// name. Each sample was read atomically; samples were not read at one
// common instant (see the package consistency contract).
type Snapshot []Sample

// Get returns the sample with the given (possibly labeled) name.
func (s Snapshot) Get(name string) (Sample, bool) {
	for _, smp := range s {
		if smp.Name == name {
			return smp, true
		}
	}
	return Sample{}, false
}

// Value returns the named counter/gauge value. It panics, naming the
// instrument, when the snapshot holds no such name: a misspelled name is a
// bug, not a zero. Use Get for an instrument that may be absent.
func (s Snapshot) Value(name string) float64 {
	smp, ok := s.Get(name)
	if !ok {
		panic(fmt.Sprintf("telemetry: no instrument %q in snapshot", name))
	}
	return smp.Value
}

// String renders the snapshot in the text exposition format (for logs and
// test-failure dumps).
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WriteProm(&b)
	return b.String()
}

// WriteProm writes the snapshot in the Prometheus text exposition format
// (version 0.0.4). Optional constLabels are key/value pairs injected into
// every series, e.g. WriteProm(w, "node", "fd00::1").
func (s Snapshot) WriteProm(w io.Writer, constLabels ...string) error {
	if len(constLabels)%2 != 0 {
		return fmt.Errorf("telemetry: WriteProm needs key/value label pairs")
	}
	var inject string
	if len(constLabels) > 0 {
		var b strings.Builder
		for i := 0; i < len(constLabels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%s="%s"`, constLabels[i], escapeLabel(constLabels[i+1]))
		}
		inject = b.String()
	}
	typed := make(map[string]bool)
	for _, smp := range s {
		base, labels := splitName(smp.Name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, smp.Kind); err != nil {
				return err
			}
		}
		if smp.Kind != KindHistogram {
			series := base + mergeLabels(labels, inject, "")
			if _, err := fmt.Fprintf(w, "%s %g\n", series, smp.Value); err != nil {
				return err
			}
			continue
		}
		h := smp.Hist
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			series := base + "_bucket" + mergeLabels(labels, inject, fmt.Sprintf(`le="%s"`, le))
			if _, err := fmt.Fprintf(w, "%s %d\n", series, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, mergeLabels(labels, inject, ""), h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, mergeLabels(labels, inject, ""), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// mergeLabels combines an instrument's own label block (`{a="b"}` or empty)
// with injected const labels and an extra pair into one block.
func mergeLabels(block, inject, extra string) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	parts := make([]string, 0, 3)
	if inner != "" {
		parts = append(parts, inner)
	}
	if inject != "" {
		parts = append(parts, inject)
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
