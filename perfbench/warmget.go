package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"slicc"
	"slicc/internal/telemetry"
	"slicc/sdk"
)

// warmSpec is the small sweep warm-get's set-up stores: 2 workloads x 4
// policies.
func warmSpec(seed int64) slicc.SweepSpec {
	return slicc.SweepSpec{
		Name:      "perfbench-warm",
		Workloads: []string{"tpcc1", "tpce"},
		Policies:  []string{"base", "nextline", "slicc-sw", "steps"},
		Threads:   slicc.SweepInts(8),
		Scales:    slicc.SweepFloats(0.1),
		Seeds:     slicc.SweepInts(int(seed)),
	}
}

// warmConfigs are the single simulations warm-get's set-up stores.
func warmConfigs(seed int64) []slicc.Config {
	return []slicc.Config{
		{Benchmark: slicc.TPCC1, Policy: slicc.SLICCSW, Threads: 8, Scale: 0.1, Seed: seed},
		{Benchmark: slicc.TPCE, Policy: slicc.Baseline, Threads: 8, Scale: 0.1, Seed: seed},
		{Benchmark: slicc.Phased, Policy: slicc.SLICC, Threads: 8, Scale: 0.1, Seed: seed},
		{Benchmark: slicc.Microservice, Policy: slicc.STEPS, Threads: 8, Scale: 0.1, Seed: seed},
	}
}

// warmUnits is how many fresh set-ups warm-get measures per run; each
// unit measures an equal share of the window.
const warmUnits = 5

// mixReq is one request of warm-get's fixed mix.
type mixReq struct {
	method, path string
	body         any
	// want is the body the warming run produced for this request.
	want []byte
	// sdkSweep / sdkSim mark conditional revalidations through sdk.Client
	// of the sweep or simulation id.
	sdkSweep, sdkSim string
}

// runWarmGet warms a store with a small sweep and a few simulations,
// restarts sliccd over it, and drives two closed-loop clients through a
// fixed mix of full-body GETs, re-POSTs and conditional revalidations.
func runWarmGet(o options, traced bool) (*outcome, error) {
	return warmGet(o, traced, warmSpec(o.seed), warmConfigs(o.seed))
}

func warmGet(o options, traced bool, spec slicc.SweepSpec, cfgs []slicc.Config) (*outcome, error) {
	out := &outcome{}
	ctx, sink := passContext(traced)
	units := warmUnits
	if traced {
		units = 1
	}
	for k := 0; k < units; k++ {
		u, err := warmUnit(ctx, o, out, k, traced, spec, cfgs, o.seconds/warmUnits)
		if err != nil {
			return nil, err
		}
		out.add(u)
	}
	if traced {
		out.spans = adopt(sink.take(), out.spans)
	}
	return out, nil
}

// warm runs the warming pass on a fresh sliccd over storeDir and returns
// the request mix with the bodies it produced.
func warm(ctx context.Context, o options, dir, storeDir string, spec slicc.SweepSpec, cfgs []slicc.Config) ([]mixReq, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	p, err := startProc(filepath.Join(o.bin, "sliccd"),
		[]string{"-store", storeDir, "-addr", "127.0.0.1:0", "-j", strconv.Itoa(o.workers)},
		filepath.Join(dir, "warming.log"), true)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	if err := waitHealthy(ctx, hc, p.url()); err != nil {
		return nil, err
	}
	var mix []mixReq
	fetch := func(r mixReq) (mixReq, error) {
		b, err := callOK(ctx, hc, r.method, p.url()+r.path, "", r.body)
		r.want = b
		return r, err
	}
	r, err := fetch(mixReq{method: http.MethodPost, path: "/v1/sweeps?wait=1", body: spec})
	if err != nil {
		return nil, err
	}
	var sw struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(r.want, &sw); err != nil || sw.Status != "done" {
		return nil, fmt.Errorf("warming sweep: status %q, %v", sw.Status, err)
	}
	mix = append(mix, r)
	for _, q := range []string{"", "?format=csv", "?format=text"} {
		r, err := fetch(mixReq{method: http.MethodGet, path: "/v1/sweeps/" + sw.ID + q})
		if err != nil {
			return nil, err
		}
		mix = append(mix, r)
	}
	mix = append(mix, mixReq{sdkSweep: sw.ID, want: mix[1].want})
	for _, cfg := range cfgs {
		r, err := fetch(mixReq{method: http.MethodPost, path: "/v1/simulations?wait=1", body: cfg})
		if err != nil {
			return nil, err
		}
		var sim sdk.Simulation
		if err := json.Unmarshal(r.want, &sim); err != nil || sim.Result == nil {
			return nil, fmt.Errorf("warming simulation: status %q, %v", sim.Status, err)
		}
		if sim.Result.Aborted || sim.Result.ThreadsFinished != cfg.Threads {
			return nil, fmt.Errorf("warming simulation %s: aborted or %d of %d threads finished", sim.ID, sim.Result.ThreadsFinished, cfg.Threads)
		}
		get, err := fetch(mixReq{method: http.MethodGet, path: "/v1/simulations/" + sim.ID})
		if err != nil {
			return nil, err
		}
		mix = append(mix, r, get, mixReq{sdkSim: sim.ID, want: get.want})
	}
	return mix, nil
}

func warmUnit(ctx context.Context, o options, out *outcome, k int, traced bool, spec slicc.SweepSpec, cfgs []slicc.Config, window float64) (unit, error) {
	dir := filepath.Join(o.tmp, fmt.Sprintf("unit-%d", k))
	storeDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return unit{}, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	mix, err := warm(ctx, o, dir, storeDir, spec, cfgs)
	if err != nil {
		return unit{}, err
	}
	if k == 0 {
		var text bytes.Buffer
		for _, r := range mix {
			if r.method != "" {
				text.Write(r.want)
			}
		}
		out.pin("warm-get", o.seed, digest(text.Bytes()))
	}
	args := []string{"-store", storeDir, "-addr", "127.0.0.1:0", "-j", strconv.Itoa(o.workers)}
	if traced {
		args = append(args, "-log-level", "debug", "-log-format", "json", "-pprof")
	}
	d, err := startProc(filepath.Join(o.bin, "sliccd"), args, filepath.Join(dir, "sliccd.log"), true)
	if err != nil {
		return unit{}, err
	}
	defer d.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if err := waitHealthy(ctx, hc, d.url()); err != nil {
		return unit{}, err
	}
	setup := time.Since(t0).Seconds()

	before, err := scrapeMetrics(ctx, hc, d.url())
	if err != nil {
		return unit{}, err
	}
	profile := func() []byte { return nil }
	if secs := int(window) - 1; traced && secs >= 1 {
		profile = startProfile(ctx, hc, d.url(), secs)
	}
	cpu0 := d.cpuSeconds()
	mctx, root := telemetry.StartSpan(ctx, "bench.measure")
	tStart := time.Now()
	deadline := tStart.Add(time.Duration(window * float64(time.Second)))
	type clientResult struct {
		lat           []float64
		errs          []error
		attempted     int
		revalidations int
	}
	results := make([]clientResult, 2)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			chc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer chc.CloseIdleConnections()
			sc := sdk.New(d.url(), sdk.WithHTTPClient(chc))
			for time.Now().Before(deadline) {
				for _, r := range mix {
					rctx, sp := telemetry.StartSpan(mctx, "bench.request")
					t := time.Now()
					reval, err := doMix(rctx, chc, sc, d.url(), spanID(sp), r)
					res.lat = append(res.lat, float64(time.Since(t).Nanoseconds())/1e3)
					sp.End()
					res.attempted++
					if reval {
						res.revalidations++
					}
					if err != nil {
						res.errs = append(res.errs, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	measured := time.Since(tStart).Seconds()
	cpu1 := d.cpuSeconds()
	profData := profile()
	after, err := scrapeMetrics(ctx, hc, d.url())
	if err != nil {
		return unit{}, err
	}
	stats, err := sdk.New(d.url(), sdk.WithHTTPClient(hc)).Stats(ctx)
	if err != nil {
		return unit{}, err
	}

	var requests, revalidations int
	for _, r := range results {
		out.lat = append(out.lat, r.lat...)
		requests += r.attempted
		revalidations += r.revalidations
		for i := 0; i < r.attempted-len(r.errs); i++ {
			out.op(nil)
		}
		for _, err := range r.errs {
			out.op(err)
		}
	}
	eng := stats.Engine
	if eng.SimsExecuted != 0 {
		out.check(fmt.Errorf("warm-get executed %d simulations; the store should serve them all", eng.SimsExecuted))
	}
	out.addCounters(map[string]float64{
		"sim.instructions":     float64(eng.InstructionsSimulated),
		"runner.jobs_executed": float64(eng.SimsExecuted),
		"runner.dedup_hits":    float64(eng.DedupHits),
		"runner.store_hits":    float64(eng.StoreHits),
		"workload.built":       float64(eng.WorkloadsBuilt),
		"runner.cells_batched": float64(eng.CellsBatched),
	})
	rss := d.stop()

	if traced {
		l := serverLayers(before, after)
		l["sdk.revalidations"] = float64(revalidations)
		l["runner.jobs_requested"] = float64(eng.SimsRequested)
		l["workload.hits"] = float64(eng.WorkloadHits)
		l["store.puts"] = float64(eng.StorePuts)
		l["store.hits"] = float64(eng.StoreHits)
		if s := stats.Store; s != nil {
			l["store.entries"] = float64(s.Entries)
			l["store.bytes"] = float64(s.Bytes)
		}
		if l["store.get_us"], l["store.put_us"], err = storeReplay(storeDir, dir); err != nil {
			return unit{}, err
		}
		f, err := os.Open(d.logPath)
		if err != nil {
			return unit{}, err
		}
		out.spans = append(out.spans, logSpans(parseJSONLog(f))...)
		f.Close()
		if len(profData) > 0 {
			if out.profile, err = parseProfile(profData); err != nil {
				return unit{}, err
			}
		}
		out.layers = l
	}
	return unit{setup: setup, window: measured, ops: float64(requests), cpu: cpu1 - cpu0, rss: rss}, nil
}

// doMix sends one mix request and checks its answer against the warming
// run's body. It reports whether the request was a revalidation answered
// 304. Full-body requests must return the exact warming bytes; an SDK
// revalidation may return 304 (the SDK replays its cached body) or the
// full body, which must decode to the warming result.
func doMix(ctx context.Context, hc *http.Client, sc *sdk.Client, base, reqID string, r mixReq) (bool, error) {
	switch {
	case r.sdkSweep != "":
		s, err := sc.Sweep(sdk.WithRequestID(ctx, reqID), r.sdkSweep, false)
		if err != nil {
			return false, err
		}
		var want sdk.Sweep
		if err := json.Unmarshal(r.want, &want); err != nil {
			return false, err
		}
		if !sameJSON(s.Result, want.Result) {
			return s.NotModified, fmt.Errorf("sdk sweep %s: result differs from the warming run", r.sdkSweep)
		}
		return s.NotModified, nil
	case r.sdkSim != "":
		s, err := sc.Simulation(sdk.WithRequestID(ctx, reqID), r.sdkSim, false)
		if err != nil {
			return false, err
		}
		var want sdk.Simulation
		if err := json.Unmarshal(r.want, &want); err != nil {
			return false, err
		}
		if !sameJSON(s.Result, want.Result) {
			return s.NotModified, fmt.Errorf("sdk simulation %s: result differs from the warming run", r.sdkSim)
		}
		return s.NotModified, nil
	}
	b, err := callOK(ctx, hc, r.method, base+r.path, reqID, r.body)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(b, r.want) {
		return false, fmt.Errorf("%s %s: body (%d bytes) differs from the warming run's (%d bytes)", r.method, r.path, len(b), len(r.want))
	}
	return false, nil
}

func sameJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
