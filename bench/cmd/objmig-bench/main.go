// Command objmig-bench runs one benchmark workload (or all four) and
// prints every metric by name with its unit, the attempted and failed
// operation counts, and as the last line of each workload a JSON object
// for the benchmark driver.
//
//	objmig-bench --workload invoke-steady --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics (and writes bench/out/trace-<workload>.json). All workloads
// run on the in-process fabric: no link is crossed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"objmig/bench"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same operations")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	out := flag.String("out", "bench/out", "directory for the span files of --trace 1")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: objmig-bench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = bench.WorkloadNames()
	}
	ok := true
	for _, name := range names {
		res, err := bench.Run(bench.Options{
			Workload: name, Seed: *seed, Trace: *trace == 1, OutDir: *out,
			Window: time.Duration(*seconds * float64(time.Second)),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "objmig-bench:", err)
			os.Exit(1)
		}
		report(res, *seed)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func report(res bench.Result, seed int64) {
	fmt.Printf("workload %s  seed %d  in-process fabric, no link  op-digest %016x\n  %s\n", res.Workload, seed, res.Digest, res.About)
	for _, m := range res.Metrics {
		fmt.Printf("  %-34s %16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Printf("  attempted %d  failed %d  output checks: ", res.Attempted, res.Failed)
	if res.CheckErr == nil {
		fmt.Println("pass")
	} else {
		fmt.Printf("FAIL\n%v\n", res.CheckErr)
	}
	if res.TraceFile != "" {
		fmt.Println("  spans written to", res.TraceFile)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil { // a NaN or Inf metric: a harness bug, not a result
		fmt.Fprintln(os.Stderr, "objmig-bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
