// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public surfaces — the slicc library Engine,
// sliccd's HTTP API with its SSE stream, the sliccworker fleet and the
// sdk.Client — checks every output, and prints one JSON result line.
//
//	perfbench --workload cold-grid --seed 1 --seconds 15 --trace 0
//
// Workloads: cold-grid, sweep-sse, fleet-sweep, warm-get (see README.md).
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it repeats the workload traced and prints the
// per-layer breakdown instead. sliccd and sliccworker are taken from
// --bin; run.sh builds them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the run's settings.
type options struct {
	seed    int64
	seconds float64
	bin     string // directory holding sliccd and sliccworker
	tmp     string // root of the stores and logs a run writes
	workers int    // simulation workers: nproc, at most 2
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options, traced bool) (*outcome, error){
	"cold-grid":   runColdGrid,
	"sweep-sse":   func(o options, traced bool) (*outcome, error) { return runService(o, traced, false) },
	"fleet-sweep": func(o options, traced bool) (*outcome, error) { return runService(o, traced, true) },
	"warm-get":    runWarmGet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: cold-grid, sweep-sse, fleet-sweep or warm-get")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 15, "measured window per run, in seconds")
		trace   = flag.Int("trace", 0, "1 repeats the workload traced and prints the per-layer breakdown")
		bin     = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the sliccd and sliccworker binaries")
		tmp     = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for the stores and logs a run writes")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// Workload seeds start at 1 (0 means "default" to the engine), so
	// seeds below 1 map to 1 - seed.
	if *seed < 1 {
		*seed = 1 - *seed
	}
	o := options{seed: *seed, seconds: *seconds, bin: *bin, workers: min(runtime.NumCPU(), 2)}
	for _, b := range []string{"sliccd", "sliccworker"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			fail(fmt.Errorf("missing %s binary (build with perfbench/run.sh): %w", b, err))
		}
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(*tmp, *name+"-")
	if err != nil {
		fail(err)
	}
	o.tmp = dir
	defer os.RemoveAll(dir)

	plain, err := run(o, false)
	if err != nil {
		os.RemoveAll(dir) // fail exits without running defers
		fail(err)
	}
	rep := report{Attempted: plain.attempted, Failed: plain.failed}
	notes := plain.notes
	if *trace == 0 {
		rep.Metrics = plain.endToEnd()
		printTable("end-to-end", rep.Metrics)
		plain.printCounts()
	} else {
		traced, err := run(o, true)
		if err != nil {
			os.RemoveAll(dir)
			fail(err)
		}
		rep.Attempted += traced.attempted
		rep.Failed += traced.failed
		notes = append(notes, traced.notes...)
		rep.Metrics = traced.perLayer(plain)
		traced.printBreakdown()
		printTable("per-layer", rep.Metrics)
	}
	rep.Correct = rep.Failed == 0
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printTable prints metrics one per line, by name with unit.
func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s\n", title)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// finite maps NaN and infinities to 0 so the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
