package main

import "encoding/json"

// runSeconds is how long one driver run measures. With the three set-ups
// of fleet-churn a run stays under half a minute, so the driver's 92 runs
// and two builds fit its budget with room to spare.
const runSeconds = 15

// The spec types mirror BENCHMARK.json key for key, in the file's order.
type (
	specWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	specEndToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	specPerLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []specWorkload `json:"workloads"`
		EndToEnd   []specEndToEnd `json:"end_to_end"`
		PerLayer   []specPerLayer `json:"per_layer"`
	}
)

// specJSON renders BENCHMARK.json from the tables the benchmark itself
// runs by, so the file and the code cannot drift apart.
func specJSON() ([]byte, error) {
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specEndToEnd{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specPerLayer{Name: m.name, Unit: m.unit, Better: m.better})
	}
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
