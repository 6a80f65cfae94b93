package main

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"slicc/internal/telemetry"
)

func TestParsePromAndDelta(t *testing.T) {
	before := `# HELP slicc_http_requests_total HTTP requests by route, method and status code.
# TYPE slicc_http_requests_total counter
slicc_http_requests_total{route="/v1/sweeps/{id}",method="GET",code="200"} 10
slicc_http_requests_total{route="/v1/sweeps/{id}/events",method="GET",code="200"} 1
slicc_http_requests_total{route="/metrics",method="GET",code="200"} 3
slicc_http_request_duration_seconds_sum{route="/v1/sweeps/{id}"} 0.5
slicc_response_cache_hits_total 4
`
	after := before + `slicc_http_requests_total{route="/v1/queue/lease",method="POST",code="200"} 7
slicc_http_requests_total{route="/v1/simulations",method="POST",code="200"} 2
slicc_http_request_duration_seconds_sum{route="/v1/simulations"} 0.25
slicc_sse_dropped_total 1e+00
`
	after = strings.Replace(after, `code="200"} 10`, `code="200"} 25`, 1)
	after = strings.Replace(after, `{route="/v1/sweeps/{id}"} 0.5`, `{route="/v1/sweeps/{id}"} 1.5`, 1)
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	l := serverLayers(b, a)
	// 15 more sweep GETs and 2 POSTs count; the stream, the queue long
	// polls and the scrapes do not.
	if got := l["server.requests"]; got != 17 {
		t.Errorf("server.requests = %v, want 17", got)
	}
	if got := l["server.busy_s"]; math.Abs(got-1.25) > 1e-12 {
		t.Errorf("server.busy_s = %v, want 1.25", got)
	}
	if got := l["server.sse_dropped"]; got != 1 {
		t.Errorf("server.sse_dropped = %v, want 1", got)
	}
	if _, ok := l["server.respcache_hit_ratio"]; ok {
		t.Errorf("hit ratio reported with no hits or misses in the window")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm(strings.NewReader("slicc_x{a=\"b\"} notanumber\n")); err == nil {
		t.Fatal("want an error for a non-numeric sample")
	}
}

func TestLabelsUnescape(t *testing.T) {
	name, ls := labels(`m{a="x \"q\" y",b="p\\q",c="l\n"}`)
	if name != "m" || ls["a"] != `x "q" y` || ls["b"] != `p\q` || ls["c"] != "l\n" {
		t.Fatalf("labels = %q %q", name, ls)
	}
}

func TestPercentileWithCounts(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p, want float64
		beyond  int
	}{{50, 50.5, 50}, {90, 90.1, 10}, {99, 99.01, 1}, {0, 1, 99}, {100, 100, 0}} {
		v, n := percentile(xs, c.p)
		if math.Abs(v-c.want) > 1e-9 || n != 100 {
			t.Errorf("p%v = %v (n=%d), want %v (n=100)", c.p, v, n, c.want)
		}
		if got := tailSamples(xs, c.p); got != c.beyond {
			t.Errorf("samples beyond p%v = %d, want %d", c.p, got, c.beyond)
		}
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty percentile = %v, %d", v, n)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPkgOfBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"slicc/internal/cache.(*Cache).findWay":       "cache",
		"slicc/internal/sim.(*Machine).siftDown":      "sim",
		"slicc/internal/slicc.(*Policy).OnMiss":       "slicc",
		"slicc.(*Engine).Sweep":                       "slicc",
		"slicc/internal/trace.(*MemSource).NextBatch": "trace",
		"runtime.mallocgc":                            "runtime",
		"net/http.(*conn).serve":                      "net/http",
		"encoding/json.Marshal.func1":                 "encoding/json",
		"memeqbody":                                   "memeqbody",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUShares(t *testing.T) {
	shares, gc := cpuShares([]profSample{
		{Stack: []string{"slicc/internal/cache.(*Cache).Access", "slicc/internal/sim.(*Machine).step"}, Value: 60},
		{Stack: []string{"slicc/internal/sim.(*Machine).siftDown"}, Value: 20},
		{Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, Value: 20},
	})
	if shares["cache"] != 0.6 || shares["sim"] != 0.2 || shares["runtime"] != 0.2 || gc != 0.2 {
		t.Fatalf("shares %v gc %v", shares, gc)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseProfileOfRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.Value
		for _, f := range s.Stack {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.Value
				break
			}
		}
	}
	if total == 0 || float64(inSpin)/float64(total) < 0.5 {
		t.Fatalf("spin holds %d of %d CPU ns in %d samples", inSpin, total, len(samples))
	}
	shares, _ := cpuShares(samples)
	if shares["slicc/perfbench"] < 0.5 {
		t.Fatalf("package shares %v: the spinning package should dominate", shares)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func span(name, id, parent string, from, to int) spanRec {
	return spanRec{Name: name, ID: id, Parent: parent, Start: at(from), End: at(to)}
}

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	p := span("p", "p", "", 0, 100)
	kids := []spanRec{
		span("a", "a", "p", 10, 30),
		span("b", "b", "p", 20, 40),  // overlaps a
		span("c", "c", "p", 90, 150), // runs past the parent
		span("d", "d", "p", -20, 5),  // starts before it
	}
	if got, want := covered(p, kids), 45*time.Millisecond; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}

func TestBreakdownSelfTimeAndRemainder(t *testing.T) {
	spans := []spanRec{
		span("bench.measure", "m", "", 0, 100),
		span("bench.sweep", "d", "m", 0, 100),
		span("sweep.run", "s", "d", 10, 90),
		span("runner.job", "j1", "s", 10, 50),
		span("runner.job", "j2", "s", 30, 80),
		span("sim.run", "r1", "j1", 15, 45),
		span("sim.run", "r2", "j2", 35, 75),
		// Outside the measured tree: a verification request afterwards.
		span("http.request", "x", "", 120, 130),
	}
	lt, remainder, root := breakdown(spans, "bench.measure")
	if root != 100*time.Millisecond || remainder != 20*time.Millisecond {
		t.Errorf("remainder %v of %v, want 20ms of 100ms", remainder, root)
	}
	want := map[string]layerTime{
		"bench.measure": {1, 100 * time.Millisecond, 0},
		"bench.sweep":   {1, 100 * time.Millisecond, 20 * time.Millisecond},
		"sweep.run":     {1, 80 * time.Millisecond, 10 * time.Millisecond},
		"runner.job":    {2, 90 * time.Millisecond, 20 * time.Millisecond},
		"sim.run":       {2, 70 * time.Millisecond, 70 * time.Millisecond},
	}
	for name, w := range want {
		if lt[name] != w {
			t.Errorf("%s: %+v, want %+v", name, lt[name], w)
		}
	}
	if _, ok := lt["http.request"]; ok {
		t.Error("a span outside the measured tree was counted")
	}
}

func TestSpanCollectionInProcessAndFromLogs(t *testing.T) {
	// In process: the benchmark's spans through the sink.
	sink := &spanSink{}
	ctx := telemetry.WithTracer(context.Background(), &telemetry.Tracer{Logger: slog.New(sink)})
	mctx, root := telemetry.StartSpan(ctx, "bench.measure")
	_, child := telemetry.StartSpan(mctx, "bench.sweep")
	child.End()
	root.End()
	bench := sink.take()
	if len(bench) != 2 || bench[0].Parent != bench[1].ID {
		t.Fatalf("benchmark spans %+v", bench)
	}

	// Out of process: a service span logged as JSON, traced under the
	// benchmark span's ID, which adopt links below it.
	var log bytes.Buffer
	logger, err := telemetry.NewLogger(&log, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	sctx := telemetry.WithRequestID(context.Background(), bench[0].ID)
	sctx = telemetry.WithTracer(sctx, &telemetry.Tracer{Logger: logger})
	_, sp := telemetry.StartSpan(sctx, "sweep.run")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	log.WriteString("not json\n")
	recs := parseJSONLog(&log)
	child2 := logSpans(recs)
	if len(child2) != 1 || child2[0].Name != "sweep.run" || child2[0].dur() < 2*time.Millisecond {
		t.Fatalf("logged spans %+v", child2)
	}
	all := adopt(bench, child2)
	if all[2].Parent != bench[0].ID {
		t.Fatalf("service span not adopted under its benchmark span: %+v", all[2])
	}
}

func TestOutcomeCountsFailuresAndCounterDrift(t *testing.T) {
	var o outcome
	o.op(nil)
	o.op(nil)
	o.check(nil)
	if o.attempted != 2 || o.failed != 0 {
		t.Fatalf("clean ops: %d attempted, %d failed", o.attempted, o.failed)
	}
	o.addCounters(map[string]float64{"sim.instructions": 10, "queue.heartbeats": 3})
	o.units = append(o.units, unit{})
	o.addCounters(map[string]float64{"sim.instructions": 10, "queue.heartbeats": 5})
	if o.failed != 0 {
		t.Fatal("a timing-dependent counter drifting failed an op")
	}
	o.units = append(o.units, unit{})
	o.addCounters(map[string]float64{"sim.instructions": 11})
	if o.failed != 1 {
		t.Fatal("a deterministic counter drifting did not fail an op")
	}
}
