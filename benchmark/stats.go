package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank. sorted
// must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailLadder is the set of percentiles a timing may be reported at, lowest
// first. highestSupported walks it from the top.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// minTailSamples is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value is one or two outliers, not a tail.
const minTailSamples = 10

// highestSupported returns the highest percentile of tailLadder that still
// has at least minTailSamples samples beyond it in a sample of size n, or
// 0 when even the median has not.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		beyond := n - int(math.Ceil(q*float64(n)))
		if beyond >= minTailSamples {
			best = q
		}
	}
	return best
}

// median returns the median of vals, which it leaves as they are.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals by the exclusive
// method — the arithmetic of Python's statistics.quantiles(vals, n=4),
// which is what the driver applies to a set of runs. vals needs two values
// at least.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relIQR is the distance between the quartiles as a share of the median:
// the spread the driver and -compare hold against a metric's bound.
func relIQR(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	m := median(vals)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// summary condenses one value per round into what is reported: the median
// over rounds, how many rounds, and their relative IQR.
type summary struct {
	Value float64
	N     int
	IQR   float64
}

func summarize(perRound []float64) summary {
	if len(perRound) == 0 {
		return summary{}
	}
	return summary{
		Value: median(perRound),
		N:     len(perRound),
		IQR:   relIQR(perRound),
	}
}

// timingStats is one phase's latency sample reduced to the reported points.
type timingStats struct {
	N    int
	P50  float64
	P99  float64
	TopQ float64 // highest supported percentile (0 when none)
	TopV float64 // its value
}

// reduceTimings sorts ns in place and reports p50, p99 and the highest
// supported percentile, all in the unit of the input.
func reduceTimings(ns []float64) timingStats {
	if len(ns) == 0 {
		return timingStats{}
	}
	sort.Float64s(ns)
	ts := timingStats{N: len(ns)}
	ts.P50 = percentile(ns, 0.5)
	ts.P99 = percentile(ns, 0.99)
	ts.TopQ = highestSupported(len(ns))
	if ts.TopQ > 0 {
		ts.TopV = percentile(ns, ts.TopQ)
	}
	return ts
}

// rateBlock is how many consecutive deliveries one throughput sample
// spans: four windows of 64, so that a queue emptying in a burst cannot pass
// for a rate, and well under a millisecond on every workload, so that a
// time slice lost to another tenant of the box spoils few samples.
const rateBlock = 256

// minRateBlocks is the fewest samples blockRate reduces; a phase that
// delivered less reports its plain mean rate.
const minRateBlocks = 8

// blockRate is the delivery rate, per second, a phase sustained while it
// had the box to itself: the times (ns) at which deliveries were verified
// are cut into blocks of rateBlock consecutive deliveries, and the rate is
// that of the first quartile of the blocks' durations. Whatever else runs
// on a shared box (this one loses up to a third of its CPU time to other
// virtual machines, minutes at a time) only ever lengthens a block, so the
// faster quarter repeats where the mean rate over the phase swings by half.
// at is sorted in place. Fewer than minRateBlocks blocks give 0.
func blockRate(at []int64) float64 {
	slices.Sort(at)
	durs := make([]float64, 0, len(at)/rateBlock)
	for i := rateBlock; i < len(at); i += rateBlock {
		durs = append(durs, float64(at[i]-at[i-rateBlock]))
	}
	if len(durs) < minRateBlocks {
		return 0
	}
	sort.Float64s(durs)
	d := percentile(durs, 0.25)
	if d <= 0 {
		return 0
	}
	return rateBlock / d * 1e9
}
