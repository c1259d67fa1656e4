package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interedge/internal/telemetry"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{10000, 0.999}, {100000, 0.9999}, {1000000, 0.99999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The reported tail value is the percentile's, not the maximum.
	ns := make([]float64, 1000)
	for i := range ns {
		ns[i] = float64(i + 1)
	}
	ts := reduceTimings(ns)
	if ts.TopQ != 0.99 || ts.TopV != 990 || ts.P50 != 500 || ts.P99 != 990 {
		t.Errorf("reduceTimings = %+v", ts)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarizeMedianAndIQR(t *testing.T) {
	s := summarize([]float64{10, 30, 20, 50, 40})
	if s.Value != 30 || s.N != 5 {
		t.Fatalf("summarize = %+v", s)
	}
	// quartiles of 10..50 step 10 are 15 and 45: (45-15)/30 = 1.
	if math.Abs(s.IQR-1) > 1e-9 {
		t.Errorf("IQR = %v, want 1", s.IQR)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func TestBlockRateIsTheRateOfUndisturbedBlocks(t *testing.T) {
	// One delivery per microsecond, handed in out of order; every third
	// block loses a 4 ms time slice to somebody else.
	const blocks = 60
	at := make([]int64, 0, blocks*rateBlock+1)
	now := int64(0)
	for i := 0; i <= blocks*rateBlock; i++ {
		if i%rateBlock == rateBlock/2 && (i/rateBlock)%3 == 0 {
			now += 4e6
		}
		at = append(at, now)
		now += 1000
	}
	mean := float64(len(at)-1) / float64(at[len(at)-1]-at[0]) * 1e9
	for i := 0; i+1 < len(at); i += 2 {
		at[i], at[i+1] = at[i+1], at[i]
	}
	if got := blockRate(at); math.Abs(got-1e6) > 1 {
		t.Errorf("blockRate = %.0f/s, want 1000000", got)
	}
	if mean > 2e5 {
		t.Fatalf("the test's own mean rate is %.0f/s; the stalls were meant to cut it below a fifth", mean)
	}
	if got := blockRate(at[:minRateBlocks*rateBlock]); got != 0 {
		t.Errorf("blockRate over %d blocks = %v, want 0 (too few to reduce)", minRateBlocks-1, got)
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, mode := range []pickMode{pickShuffled, pickZipf, pickSequential} {
		a := sequenceHash(7, 256, 4096, mode, 1.1, 256, 2000)
		b := sequenceHash(7, 256, 4096, mode, 1.1, 256, 2000)
		c := sequenceHash(8, 256, 4096, mode, 1.1, 256, 2000)
		if a != b {
			t.Errorf("mode %d: the same seed generated two different operation sequences", mode)
		}
		if a == c {
			t.Errorf("mode %d: seeds 7 and 8 generated the same operation sequence", mode)
		}
	}
	// The zipf permutation keeps each rank's class, so every seed's
	// traffic has the same composition by path shape.
	g := newGenerator(3, 64, 64, pickZipf, 1.1)
	byRank := classPreserving([]int{5, 2, 9, 0, 14, 3, 8, 1, 6, 7, 4, 10, 11, 12, 13, 15}, 8)
	for r, tag := range byRank {
		if tag%8 != r%8 {
			t.Errorf("rank %d mapped to tag %d of another class", r, tag)
		}
	}
	if len(g.picks) != 64 {
		t.Fatalf("pick table has %d entries", len(g.picks))
	}
}

func TestPayloadCodecDetectsDamage(t *testing.T) {
	g := newGenerator(1, 4, 16, pickShuffled, 0)
	for _, size := range []int{minPayload, 256, maxPayload} {
		buf := make([]byte, size)
		g.fill(buf, 3, 41)
		tag, op, ok := parsePayload(buf)
		if !ok || tag != 3 || op != 41 {
			t.Fatalf("size %d: parsed (%d, %d, %v)", size, tag, op, ok)
		}
		for _, i := range []int{0, 5, 13, payloadHeaderLen, size - 1} {
			buf[i] ^= 0x40
			if _, _, ok := parsePayload(buf); ok {
				t.Errorf("size %d: a flipped bit at %d went unnoticed", size, i)
			}
			buf[i] ^= 0x40
		}
		if _, _, ok := parsePayload(buf[:minPayload-1]); ok {
			t.Errorf("size %d: a truncated payload parsed", size)
		}
	}
}

func TestDeliverCountsDuplicatesReordersAndMisroutes(t *testing.T) {
	g := newLoadgen(newGenerator(1, 2, 16, pickShuffled, 0), newSampleArrays(64))
	g.flows = []*flow{{tag: 0, dstEP: 0}, {tag: 1, dstEP: 1}}
	payload := func(tag uint32, op uint64) []byte {
		buf := make([]byte, minPayload)
		g.gen.fill(buf, tag, op)
		g.sentOp[op%ringLen].Store(op + 1)
		return buf
	}
	p0, p1, p2 := payload(0, 0), payload(0, 1), payload(1, 2)
	if !g.deliver(0, p1, true) || !g.deliver(0, p0, true) { // out of order
		t.Fatal("good packets were refused")
	}
	if g.reordered.Load() != 1 {
		t.Errorf("reordered = %d, want 1", g.reordered.Load())
	}
	if g.deliver(0, p0, true) || g.fail.duplicate.Load() != 1 {
		t.Errorf("a second delivery was not counted as a duplicate")
	}
	if g.deliver(0, p2, true) || g.fail.misrouted.Load() != 1 {
		t.Errorf("a packet at the wrong endpoint was not counted as misrouted")
	}
	p2[20] ^= 1
	if g.deliver(1, p2, true) || g.fail.corrupt.Load() != 1 {
		t.Errorf("a corrupt packet was not counted")
	}
	g.floor.Store(10)
	p2[20] ^= 1
	if g.deliver(1, p2, true) || g.fail.late.Load() != 1 {
		t.Errorf("a packet declared lost was not counted as late")
	}
	if g.delivered.Load() != 2 || len(g.tokens) != 2 || g.fail.total() != 3 {
		t.Errorf("delivered=%d tokens=%d failed=%d", g.delivered.Load(), len(g.tokens), g.fail.total())
	}
}

// correlatorInput builds two requests from host A through one SN to host B.
func correlatorInput() correlateInput {
	a, s, b := benchAddr(1), benchAddr(2), benchAddr(3)
	first, last := linkKey{a, s}, linkKey{s, b}
	return correlateInput{
		ops: []opRec{
			{t0: 100, t1: 130, t6: 400, srcOrd: 0, dstOrd: 0, sent: true, received: true},
			{t0: 200, t1: 230, t6: 520, srcOrd: 1, dstOrd: 1, sent: true, received: true},
		},
		srcLink:   func(*opRec) linkKey { return first },
		dstLink:   func(*opRec) (linkKey, bool) { return last, true },
		links:     map[linkKey][]int64{first: {120, 220}, last: {300, 410}},
		sent:      map[linkKey]uint32{first: 2},
		delivered: map[linkKey]uint32{last: 2},
		hook: []hookEvent{
			{t: 150, src: a, point: telemetry.TraceRx},
			{t: 160, src: a, point: telemetry.TraceFastPath},
			{t: 250, src: a, point: telemetry.TraceRx},
			{t: 165, src: a, point: telemetry.TraceForward},
			{t: 270, src: a, point: telemetry.TraceSlowPath},
		},
	}
}

func TestCorrelateChainsStampsByLinkOrder(t *testing.T) {
	pt, err := correlate("one", 1000, correlatorInput())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Requests != 2 {
		t.Fatalf("requests = %d", pt.Requests)
	}
	want := map[string][2]int64{ // request 1001
		"request": {200, 520}, "host.tx": {200, 220}, "sn.residence": {220, 410}, "host.rx": {410, 520},
		"sn.rx": {220, 250}, "sn.decide": {250, 270}, "sn.serve": {270, 410},
	}
	seen := 0
	for _, sp := range pt.Spans {
		if sp.Request != 1001 {
			continue
		}
		seen++
		if w := want[sp.Name]; sp.StartNs != w[0] || sp.EndNs != w[1] {
			t.Errorf("span %s = [%d, %d], want %v", sp.Name, sp.StartNs, sp.EndNs, w)
		}
		if sp.Name != "request" && sp.Parent != spanParents[sp.Name] {
			t.Errorf("span %s has parent %q", sp.Name, sp.Parent)
		}
	}
	if seen != len(want) {
		t.Errorf("request 1001 has %d spans, want %d", seen, len(want))
	}
	// Children tile their parents here, so self time is zero.
	if s := pt.Stats["sn.residence"]; s.N != 2 || s.SelfNs != 0 {
		t.Errorf("sn.residence stats = %+v", s)
	}
}

func TestCorrelateFailsOnCountMismatch(t *testing.T) {
	in := correlatorInput()
	in.links[linkKey{benchAddr(2), benchAddr(3)}] = []int64{300} // one stamp lost
	if _, err := correlate("one", 0, in); err == nil || !strings.Contains(err.Error(), "verified 2 deliveries") {
		t.Errorf("a missing egress stamp did not fail the traced run: %v", err)
	}
	in = correlatorInput()
	in.links[linkKey{benchAddr(1), benchAddr(2)}] = []int64{120, 220, 221} // a packet the benchmark did not send
	if _, err := correlate("one", 0, in); err == nil || !strings.Contains(err.Error(), "the benchmark sent 2") {
		t.Errorf("an extra ingress stamp did not fail the traced run: %v", err)
	}
	in = correlatorInput()
	in.hook = in.hook[:3] // the SN never decided the second packet
	if _, err := correlate("one", 0, in); err == nil || !strings.Contains(err.Error(), "SN hook") {
		t.Errorf("a missing hook event did not fail the traced run: %v", err)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  verdict
	}{
		{"within the bound", []float64{104, 105, 103}, false, same},
		{"higher is better, got higher", []float64{120, 121, 119}, false, better},
		{"higher is better, got lower", []float64{80, 81, 79}, false, worse},
		{"lower is better, got higher", []float64{120, 121, 119}, true, worse},
		{"lower is better, got lower", []float64{80, 81, 79}, true, better},
		{"spread wider than the bound, overlapping", []float64{70, 100, 130}, false, unresolved},
		{"spread wider than the bound, every run better", []float64{150, 200, 250}, false, better},
		{"spread wider than the bound, every run worse", []float64{150, 200, 250}, true, worse},
	} {
		if got := judge(base, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func writeSet(t *testing.T, dir string, pps []float64) string {
	t.Helper()
	var buf bytes.Buffer
	for i, v := range pps {
		line, err := json.Marshal(runResult{Workload: "w", Seed: int64(i + 1), Correct: true,
			Metrics: map[string]metric{"delivered_pps": {Value: v, Unit: "1/s"}}})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCompareSetsExitCodes(t *testing.T) {
	tmp := t.TempDir()
	spec := filepath.Join(tmp, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"delivered_pps","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := writeSet(t, filepath.Join(tmp, "a"), []float64{100, 101, 99})
	var out bytes.Buffer
	if code := compareSets(&out, a, writeSet(t, filepath.Join(tmp, "same"), []float64{102, 101, 100}), spec); code != 0 || !strings.Contains(out.String(), "same") {
		t.Errorf("same sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, a, writeSet(t, filepath.Join(tmp, "worse"), []float64{80, 81, 79}), spec); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("worse set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, a, writeSet(t, filepath.Join(tmp, "few"), []float64{100, 100}), spec); code != 2 {
		t.Errorf("a set of two runs was accepted: exit %d\n%s", code, out.String())
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the tables in the code one
// list: the file is what `go run ./benchmark -spec` prints.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), bytes.TrimSpace(want)) {
		t.Errorf("BENCHMARK.json differs from the code's tables; regenerate it with: go run ./benchmark -spec > BENCHMARK.json")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("the driver's limits are exceeded: %d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloads))
	}
}

// TestSmoke runs every workload end to end at tiny sizes, untraced and
// traced, so that the benchmark cannot rot when a layer's API changes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	out := t.TempDir()
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{w: &workloads[i], seed: 1, seconds: 0.4, trace: traced, sz: smokeSizes, outDir: out})
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", workloads[i].name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d notes=%v",
					workloads[i].name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if traced {
				for _, m := range perLayer {
					if _, ok := res.Metrics[m.name]; !ok {
						t.Errorf("%s: per-layer metric %s missing", workloads[i].name, m.name)
					}
				}
				sum := 0.0
				for _, m := range perLayer {
					if strings.HasPrefix(m.name, "budget.") {
						sum += res.Metrics[m.name].Value
					}
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: budget shares sum to %v, want 1", workloads[i].name, sum)
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+workloads[i].name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", workloads[i].name, err)
				}
				continue
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v", workloads[i].name, m.name, v)
				}
			}
		}
	}
}
