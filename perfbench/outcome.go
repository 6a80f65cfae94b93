package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// unit is one measured repetition of a workload on freshly started
// systems under test.
type unit struct {
	setup  float64 // seconds from starting the unit to ready-to-measure
	window float64 // measured seconds
	// ops is the work completed in the window: millions of simulated
	// instructions, or requests for warm-get. Simulations differ in size
	// from seed to seed, so a simulation is no steady unit of work.
	ops float64
	cpu float64 // user+sys CPU seconds of the systems under test in the window
	rss float64 // largest peak resident set among them, MB
}

// outcome is everything one pass of a workload measured.
type outcome struct {
	units []unit
	// lat holds latency samples in µs: per request for warm-get, time to
	// each result from its submission for the simulation workloads.
	lat []float64

	attempted, failed int
	notes             []string // what each failed op was

	// counters are the deterministic work counters of the first unit; each
	// later unit must reproduce them exactly, as it must the digest of
	// the simulated statistics.
	counters map[string]float64
	digest   string

	// Traced passes only.
	layers  map[string]float64
	spans   []spanRec
	profile []profSample
}

// add records a measured unit, and reports it on stderr.
func (o *outcome) add(u unit) {
	o.units = append(o.units, u)
	fmt.Fprintf(os.Stderr, "perfbench: unit %d: set-up %.4fs, %.6g ops in %.3fs (%.6g/s), cpu %.3fs, rss %.1fMB\n",
		len(o.units), u.setup, u.ops, u.window, u.ops/u.window, u.cpu, u.rss)
}

// op records one attempted op and, when err is non-nil, its failure.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.notes) < 20 {
			o.notes = append(o.notes, err.Error())
		}
	}
}

// check records a correctness failure without a new attempted op: the
// mismatching output belongs to an op already counted, which now fails.
func (o *outcome) check(err error) {
	if err == nil {
		return
	}
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, err.Error())
	}
}

// pin records a unit's result digest: later units must reproduce the
// first unit's, and at the default seed it must equal the pinned one.
func (o *outcome) pin(workload string, seed int64, got string) {
	if o.digest == "" {
		o.digest = got
	} else if got != o.digest {
		o.check(fmt.Errorf("%s: result digest %s in unit %d, %s in unit 1", workload, got, len(o.units)+1, o.digest))
	}
	o.check(checkPinned(workload, seed, got))
}

// addCounters sets the counters from the first unit and checks later
// units against them.
func (o *outcome) addCounters(c map[string]float64) {
	if o.counters == nil {
		o.counters = c
		return
	}
	for _, k := range deterministicCounters {
		if o.counters[k] != c[k] {
			o.check(fmt.Errorf("counter %s: %v in unit 1, %v in unit %d", k, o.counters[k], c[k], len(o.units)))
		}
	}
}

// deterministicCounters repeat exactly for a given workload and seed;
// timing-dependent counters (heartbeats, dedup races) are reported but
// not held to that.
var deterministicCounters = []string{
	"sim.instructions", "runner.jobs_executed", "runner.dedup_hits", "runner.store_hits",
	"workload.built", "runner.cells_batched", "queue.enqueued", "queue.leases",
}

func (o *outcome) throughput() []float64 {
	var xs []float64
	for _, u := range o.units {
		xs = append(xs, u.ops/u.window)
	}
	return xs
}

// endToEnd reduces the units to the end-to-end metrics, each the median
// across units.
func (o *outcome) endToEnd() map[string]metric {
	var setups, cpu, rss []float64
	for _, u := range o.units {
		setups = append(setups, u.setup)
		cpu = append(cpu, u.cpu*1000/u.ops)
		rss = append(rss, u.rss)
	}
	return map[string]metric{
		"setup_s":       {finite(median(setups)), "s"},
		"ops_per_s":     {finite(median(o.throughput())), "1/s"},
		"cpu_ms_per_op": {finite(median(cpu)), "ms"},
		"peak_rss_mb":   {finite(median(rss)), "MB"},
	}
}

// printCounts prints the latency percentiles with their sample counts,
// the work behind the end-to-end figures, and the deterministic counters.
func (o *outcome) printCounts() {
	var ops, window float64
	for _, u := range o.units {
		ops += u.ops
		window += u.window
	}
	fmt.Printf("# %d units, %.6g ops in %.3fs measured\n", len(o.units), ops, window)
	for _, p := range []float64{50, 90, 99} {
		v, n := percentile(o.lat, p)
		fmt.Printf("latency_p%-19.0f %16.6g us (%d samples, %d beyond)\n", p, v, n, tailSamples(o.lat, p))
	}
	fmt.Printf("# result digest %s\n", o.digest)
	fmt.Println("# deterministic counters (per unit)")
	for _, k := range deterministicCounters {
		fmt.Printf("%-28s %16.0f count\n", k, o.counters[k])
	}
}

// layerMetrics lists every per-layer metric with its unit, in report
// order. A layer a workload does not use reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"server.requests", "count"}, {"server.busy_s", "s"}, {"server.respcache_hit_ratio", "ratio"},
	{"server.not_modified", "count"}, {"server.sse_events", "count"}, {"server.sse_dropped", "count"},
	{"sdk.revalidations", "count"},
	{"sweep.cells", "count"}, {"sweep.expand_ms", "ms"}, {"sweep.run_s", "s"},
	{"runner.jobs_requested", "count"}, {"runner.jobs_executed", "count"}, {"runner.dedup_hits", "count"},
	{"runner.store_hits", "count"}, {"runner.cells_batched", "count"}, {"runner.job_s", "s"}, {"runner.job_self_s", "s"},
	{"workload.built", "count"}, {"workload.hits", "count"}, {"workload.synth_s", "s"},
	{"sim.run_s", "s"}, {"sim.instructions", "count"}, {"sim.ns_per_instr", "ns"},
	{"sim.migrations", "count"}, {"sim.context_switches", "count"},
	{"sim.cpu_share", "share"}, {"cache.cpu_share", "share"}, {"trace.cpu_share", "share"},
	{"mem.cpu_share", "share"}, {"noc.cpu_share", "share"}, {"slicc.cpu_share", "share"},
	{"sched.cpu_share", "share"}, {"prefetch.cpu_share", "share"}, {"bloom.cpu_share", "share"},
	{"workload.cpu_share", "share"},
	{"runtime.gc_cpu_share", "share"}, {"runtime.allocs_per_minstr", "count"},
	{"store.puts", "count"}, {"store.hits", "count"}, {"store.entries", "count"}, {"store.bytes", "bytes"},
	{"store.get_us", "us"}, {"store.put_us", "us"},
	{"queue.enqueued", "count"}, {"queue.leases", "count"}, {"queue.heartbeats", "count"},
	{"queue.expirations", "count"}, {"queue.failures", "count"}, {"queue.dead", "count"}, {"queue.wait_s", "s"},
	{"worker.executions", "count"}, {"worker.busy_s", "s"}, {"worker.idle_share", "share"},
	{"span.unattributed_s", "s"}, {"span.unattributed_share", "share"}, {"span.tracing_overhead_share", "share"},
}

// cpuSharePackages are the packages whose CPU shares are reported.
var cpuSharePackages = []string{"sim", "cache", "trace", "mem", "noc", "slicc", "sched", "prefetch", "bloom", "workload"}

// perLayer assembles the per-layer metrics of this traced pass; plain is
// the untraced pass of the same run, the base of the tracing overhead.
func (o *outcome) perLayer(plain *outcome) map[string]metric {
	l := map[string]float64{}
	for k, v := range o.layers {
		l[k] = v
	}
	for k, v := range o.counters {
		l[k] = v
	}
	spans, remainder, root := breakdown(o.spans, "bench.measure")
	l["sweep.run_s"] = spans["sweep.run"].Total.Seconds()
	l["runner.job_s"] = spans["runner.job"].Total.Seconds()
	l["runner.job_self_s"] = spans["runner.job"].Self.Seconds()
	l["sim.run_s"] = spans["sim.run"].Total.Seconds()
	if n := l["sim.instructions"]; n > 0 {
		l["sim.ns_per_instr"] = spans["sim.run"].Total.Seconds() * 1e9 / n
	}
	l["span.unattributed_s"] = remainder.Seconds()
	if root > 0 {
		l["span.unattributed_share"] = float64(remainder) / float64(root)
	}
	if pt, tt := median(plain.throughput()), median(o.throughput()); pt > 0 {
		l["span.tracing_overhead_share"] = (pt - tt) / pt
	}
	if len(o.profile) > 0 {
		shares, gc := cpuShares(o.profile)
		for _, p := range cpuSharePackages {
			l[p+".cpu_share"] = shares[p]
		}
		l["runtime.gc_cpu_share"] = gc
	}
	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{finite(l[m.name]), m.unit}
	}
	return out
}

// printBreakdown prints the traced span tree aggregated by span name:
// count, total and self time, then the unattributed remainder.
func (o *outcome) printBreakdown() {
	spans, remainder, root := breakdown(o.spans, "bench.measure")
	names := make([]string, 0, len(spans))
	for n := range spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("# traced breakdown: span, count, total, self")
	for _, n := range names {
		lt := spans[n]
		fmt.Printf("%-28s %8d %14v %14v\n", n, lt.Count, lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
	}
	fmt.Printf("%-28s %8s %14v of %v measured\n", "unattributed", "", remainder.Round(time.Microsecond), root.Round(time.Microsecond))
	if len(o.profile) > 0 {
		shares, gc := cpuShares(o.profile)
		type kv struct {
			k string
			v float64
		}
		var top []kv
		for k, v := range shares {
			top = append(top, kv{k, v})
		}
		sort.Slice(top, func(i, j int) bool { return top[i].v > top[j].v })
		fmt.Printf("# CPU profile by package (self), gc %.3f\n", gc)
		for i, e := range top {
			if i == 12 {
				break
			}
			fmt.Printf("%-28s %8.3f\n", e.k, e.v)
		}
	}
}
