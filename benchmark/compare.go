package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minRunsPerSet is the fewest runs of a workload a result set may hold.
const minRunsPerSet = 3

// verdict is -compare's judgement of one metric on one workload.
type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // spread wider than the bound
)

// judge compares the runs of set b against set a for one metric. A change
// of the median within the bound is same; beyond it, better or worse by the
// metric's direction. When either set's spread (IQR / median) exceeds the
// bound the medians cannot be told apart and the row is unresolved, unless
// every run of one set beats every run of the other.
func judge(a, b []float64, lowerIsBetter bool, bound float64) verdict {
	// Score every run so that higher is better, whatever the metric.
	sa, sb := scored(a, lowerIsBetter), scored(b, lowerIsBetter)
	ma, mb := median(sa), median(sb)
	if ma == 0 {
		return unresolved
	}
	if relIQR(a) > bound || relIQR(b) > bound {
		switch {
		case sb[0] > sa[len(sa)-1]:
			return better
		case sa[0] > sb[len(sb)-1]:
			return worse
		}
		return unresolved
	}
	switch gain := (mb - ma) / math.Abs(ma); {
	case gain < -bound:
		return worse
	case gain > bound:
		return better
	}
	return same
}

// scored returns the values sorted ascending, negated when lower is
// better.
func scored(v []float64, lowerIsBetter bool) []float64 {
	s := append([]float64(nil), v...)
	if lowerIsBetter {
		for i := range s {
			s[i] = -s[i]
		}
	}
	sort.Float64s(s)
	return s
}

// loadSet reads the end-to-end runs of a result set: a results.jsonl file,
// or a directory holding one.
func loadSet(path string) (map[string]map[string][]float64, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "results.jsonl")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64) // workload → metric → one value per run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: an incorrect run of %s (seed %d) cannot be compared", path, r.Workload, r.Seed)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// compareSets prints one row per metric × workload and returns the exit
// code: 1 when any row is worse, 2 when the sets cannot be compared.
func compareSets(w io.Writer, pathA, pathB, specPath string) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	var bm spec // BENCHMARK.json: the workloads and the end-to-end bounds are applied
	if err := json.Unmarshal(raw, &bm); err != nil {
		fmt.Fprintf(w, "compare: %s: %v\n", specPath, err)
		return 2
	}
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	code := 0
	counts := map[verdict]int{}
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) < minRunsPerSet || len(vb) < minRunsPerSet {
				fmt.Fprintf(w, "compare: %s/%s has %d and %d runs; each set needs at least %d\n",
					wl.Name, m.Name, len(va), len(vb), minRunsPerSet)
				return 2
			}
			v := judge(va, vb, m.Better == "lower", m.Bound)
			counts[v]++
			if v == worse {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, (mb-ma)/ma*100, relIQR(va)*100, relIQR(vb)*100, m.Bound*100, v)
		}
	}
	fmt.Fprintf(w, "same=%d better=%d worse=%d unresolved=%d\n", counts[same], counts[better], counts[worse], counts[unresolved])
	return code
}
