// Command benchmark is the InterEdge benchmark: four workloads driven
// through the real paths (hosts → pipe → sn.handleBatch → modules → hosts
// over the netsim fabric), end-to-end metrics with regression bounds in
// BENCHMARK.json, and a traced run that reports every layer from outside.
// See README.md in this directory.
//
//	go run ./benchmark                         all workloads, end-to-end then per-layer
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare A B            judge result set B against A
//	go run ./benchmark -smoke                  every workload at tiny sizes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: flow→destination assignment, zipf draws, payload bytes")
		seconds  = flag.Float64("seconds", 30, "seconds of timed phases per run")
		traceArg = flag.String("trace", "", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics (default: both, in turn)")
		out      = flag.String("out", ".bench_out", "directory for results.jsonl and trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A B (directories or results.jsonl files)")
		smoke    = flag.Bool("smoke", false, "run every workload at tiny sizes, end-to-end and traced")
		specOut  = flag.Bool("spec", false, "print BENCHMARK.json as the code's tables define it")
	)
	flag.Parse()

	if *specOut {
		out, err := specJSON()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(out)
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result sets")
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json"))
	}

	sz := fullSizes
	if *smoke {
		sz = smokeSizes
		if !flagSet("seconds") {
			*seconds = 1
		}
	}
	var traces []bool
	switch *traceArg {
	case "":
		traces = []bool{false, true}
	case "0", "false":
		traces = []bool{false}
	case "1", "true":
		traces = []bool{true}
	default:
		fatalf("-trace takes 0 or 1, not %q", *traceArg)
	}
	defs := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatalf("unknown workload %q", *workload)
		}
		defs = []workloadDef{*w}
	}

	ok := true
	var last *runResult
	for i := range defs {
		for _, tr := range traces {
			res, err := runWorkload(runConfig{
				w: &defs[i], seed: *seed, seconds: *seconds, trace: tr, sz: sz, outDir: *out,
			})
			if err != nil {
				fatalf("%v", err)
			}
			res.report(os.Stdout)
			if err := appendResult(*out, res); err != nil {
				fatalf("%v", err)
			}
			ok = ok && res.Correct
			last = res
		}
	}
	// The last line of standard output is the machine-readable result of
	// the last run made (the only one, under the driver).
	line, err := json.Marshal(last.lastLine())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// appendResult adds one run to <dir>/results.jsonl, the file -compare
// reads.
func appendResult(dir string, res *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
