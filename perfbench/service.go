package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"slicc"
	"slicc/internal/runner"
	"slicc/internal/telemetry"
	"slicc/sdk"
)

// serviceSpec is the sweep-sse and fleet-sweep spec: many small cells
// across all seven workload families and every policy (56 cells and 7
// baselines, which coincide with the base cells).
func serviceSpec(seed int64) slicc.SweepSpec {
	return slicc.SweepSpec{
		Name:      "perfbench-service",
		Workloads: []string{"tpcc1", "tpcc10", "tpce", "mapreduce", "phased", "skewed", "microservice"},
		Policies:  []string{"base", "nextline", "slicc", "slicc-pp", "slicc-sw", "pif", "stream", "steps"},
		Threads:   slicc.SweepInts(8),
		Scales:    slicc.SweepFloats(0.1),
		Seeds:     slicc.SweepInts(int(seed)),
	}
}

// runService runs cold sweeps on a standalone sliccd (sweep-sse) or on
// sliccd -distributed with two one-slot sliccworkers (fleet-sweep), one
// fresh set of processes and store per unit, until the window is spent.
func runService(o options, traced, fleet bool) (*outcome, error) {
	return service(o, traced, fleet, serviceSpec(o.seed))
}

func service(o options, traced, fleet bool, spec slicc.SweepSpec) (*outcome, error) {
	name := "sweep-sse"
	if fleet {
		name = "fleet-sweep"
	}
	out := &outcome{}
	ctx, sink := passContext(traced)
	var measured float64
	for k := 0; k == 0 || (!traced && measured < o.seconds); k++ {
		u, err := serviceUnit(ctx, o, out, name, k, traced, fleet, spec)
		if err != nil {
			return nil, err
		}
		measured += u.window
		out.add(u)
	}
	if traced {
		out.spans = adopt(sink.take(), out.spans)
	}
	return out, nil
}

// spanID is the span's ID, "" for an inactive (nil) span.
func spanID(s *telemetry.Span) string {
	if s == nil {
		return ""
	}
	return s.ID
}

// serviceUnit boots the processes, submits the sweep, drains its event
// stream and verifies the result.
func serviceUnit(ctx context.Context, o options, out *outcome, name string, k int, traced, fleet bool, spec slicc.SweepSpec) (unit, error) {
	dir := filepath.Join(o.tmp, fmt.Sprintf("unit-%d", k))
	storeDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return unit{}, err
	}
	defer os.RemoveAll(dir)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	t0 := time.Now()
	args := []string{"-store", storeDir, "-addr", "127.0.0.1:0", "-j", strconv.Itoa(o.workers)}
	if fleet {
		args = append(args, "-distributed")
	}
	if traced {
		args = append(args, "-log-level", "debug", "-log-format", "json", "-pprof")
	}
	d, err := startProc(filepath.Join(o.bin, "sliccd"), args, filepath.Join(dir, "sliccd.log"), true)
	if err != nil {
		return unit{}, err
	}
	procs := []*proc{d}
	defer func() { stopAll(procs) }()
	if err := waitHealthy(ctx, hc, d.url()); err != nil {
		return unit{}, err
	}
	if fleet {
		for w := 0; w < 2; w++ {
			wargs := []string{"-server", d.url(), "-store", storeDir, "-j", "1", "-name", fmt.Sprintf("worker-%d", w)}
			if traced {
				wargs = append(wargs, "-log-level", "debug", "-log-format", "json")
			}
			p, err := startProc(filepath.Join(o.bin, "sliccworker"), wargs, filepath.Join(dir, fmt.Sprintf("worker-%d.log", w)), false)
			if err != nil {
				return unit{}, err
			}
			procs = append(procs, p)
		}
		if err := waitPolling(ctx, hc, d.url(), 2); err != nil {
			return unit{}, err
		}
	}
	setup := time.Since(t0).Seconds()

	before, err := scrapeMetrics(ctx, hc, d.url())
	if err != nil {
		return unit{}, err
	}
	var mallocs0 float64
	if traced {
		if mallocs0, err = heapMallocs(ctx, hc, d.url()); err != nil {
			return unit{}, err
		}
	}
	cpu0 := cpuOf(procs)

	mctx, root := telemetry.StartSpan(ctx, "bench.measure")
	sctx, sp := telemetry.StartSpan(mctx, "bench.sweep")
	reqID := spanID(sp)
	tPost := time.Now()
	body, err := callOK(sctx, hc, http.MethodPost, d.url()+"/v1/sweeps", reqID, spec)
	if err != nil {
		return unit{}, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return unit{}, fmt.Errorf("sweep submission: %v in %.200s", err, body)
	}
	profile := func() []byte { return nil }
	if traced {
		profile = startProfile(ctx, hc, d.url(), 2)
	}
	cells := map[int]slicc.SweepCellResult{}
	bases := map[int]slicc.SweepCellResult{}
	var events int
	var terminal *slicc.SweepEvent
	streamErr := streamSweep(sctx, hc, d.url(), sub.ID, reqID, func(e sseEvent) {
		events++
		switch e.ev.Type {
		case slicc.SweepEventCell, slicc.SweepEventBaseline:
			seen := cells
			if e.ev.Type == slicc.SweepEventBaseline {
				seen = bases
			}
			if _, dup := seen[e.ev.Index]; dup || e.ev.Cell == nil {
				out.check(fmt.Errorf("%s event %d duplicated or empty", e.ev.Type, e.ev.Index))
				return
			}
			seen[e.ev.Index] = *e.ev.Cell
			out.lat = append(out.lat, float64(e.at.Sub(tPost).Microseconds()))
		default:
			ev := e.ev
			terminal = &ev
		}
	})
	sp.End()
	root.End()
	window := time.Since(tPost).Seconds()
	cpu1 := cpuOf(procs)
	profData := profile()

	after, err := scrapeMetrics(ctx, hc, d.url())
	if err != nil {
		return unit{}, err
	}
	sc := sdk.New(d.url(), sdk.WithHTTPClient(hc))
	stats, err := sc.Stats(ctx)
	if err != nil {
		return unit{}, err
	}
	var mallocs1 float64
	if traced {
		if mallocs1, err = heapMallocs(ctx, hc, d.url()); err != nil {
			return unit{}, err
		}
	}

	// Correctness and failure accounting: every cell and baseline is an op.
	switch {
	case streamErr != nil:
		out.check(fmt.Errorf("event stream: %w", streamErr))
	case terminal == nil:
		out.check(fmt.Errorf("event stream ended without a terminal event"))
	case terminal.Type != slicc.SweepEventDone || terminal.Status != "done":
		out.check(fmt.Errorf("sweep ended %s/%s: %s", terminal.Type, terminal.Status, terminal.Error))
	}
	var view struct {
		Status string             `json:"status"`
		Result *slicc.SweepResult `json:"result"`
	}
	jsonBody, err := callOK(ctx, hc, http.MethodGet, d.url()+"/v1/sweeps/"+sub.ID, "", nil)
	if err == nil {
		err = json.Unmarshal(jsonBody, &view)
	}
	if err == nil && view.Result == nil {
		err = fmt.Errorf("sweep %s has no result (status %s)", sub.ID, view.Status)
	}
	if err != nil {
		out.op(err)
		return unit{setup: setup, window: window}, nil
	}
	res := view.Result
	for i := range res.Cells {
		_, ok := cells[i]
		out.op(missing(ok, "cell", i))
	}
	for i := range res.Baselines {
		_, ok := bases[i]
		out.op(missing(ok, "baseline", i))
	}
	csvBody, err := callOK(ctx, hc, http.MethodGet, d.url()+"/v1/sweeps/"+sub.ID+"?format=csv", "", nil)
	if err == nil {
		err = checkRenderings(res, cells, bases, csvBody)
	}
	out.check(err)
	out.pin(name, o.seed, digest(nil, res.Cells, res.Baselines))

	// The unit's simulations, deduplicated by content key: the work done.
	var instr, migrations, switches float64
	unique := map[string]slicc.SweepCellResult{}
	for _, c := range append(append([]slicc.SweepCellResult(nil), res.Cells...), res.Baselines...) {
		job, err := c.Job()
		if err != nil {
			out.check(err)
			continue
		}
		key := runner.JobKey(job) // the runner's own dedup key
		if _, ok := unique[key]; !ok {
			unique[key] = c
			instr += float64(c.Instructions)
			migrations += float64(c.Migrations)
		}
	}
	if k == 0 {
		// Each cell as a single simulation over HTTP (a store hit), and a
		// few re-simulated in process: the paths must agree.
		for _, c := range unique {
			cfg, _ := cellConfig(c) // parsed above
			s, err := sc.SubmitSimulation(ctx, cfg, true)
			if err == nil && s.Result == nil {
				err = fmt.Errorf("simulation %s: status %s: %s", s.ID, s.Status, s.Error)
			}
			if err == nil {
				err = agree(c, *s.Result)
				switches += float64(s.Result.ContextSwitches)
			}
			out.check(err)
		}
		out.check(spotCheck(ctx, o.workers, res.Cells, 2))
	}
	var dead float64
	if fleet {
		var dl struct {
			Dead []json.RawMessage `json:"dead"`
		}
		b, err := callOK(ctx, hc, http.MethodGet, d.url()+"/v1/queue/dead", "", nil)
		if err == nil {
			err = json.Unmarshal(b, &dl)
		}
		out.check(err)
		for range dl.Dead {
			out.op(fmt.Errorf("queue entry dead-lettered"))
		}
		dead = float64(len(dl.Dead))
	}

	rss := stopAll(procs)
	eng := stats.Engine
	counters := map[string]float64{
		"sim.instructions":     instr,
		"runner.jobs_executed": float64(eng.SimsExecuted + eng.SimsRemote),
		"runner.dedup_hits":    float64(eng.DedupHits),
		"runner.store_hits":    float64(eng.StoreHits),
		"workload.built":       float64(eng.WorkloadsBuilt),
		"runner.cells_batched": float64(eng.CellsBatched),
	}
	if q := stats.Queue; q != nil {
		counters["queue.enqueued"] = float64(q.Enqueued)
		counters["queue.leases"] = float64(q.Leases)
	}
	if !fleet && float64(eng.InstructionsSimulated) != instr {
		out.check(fmt.Errorf("engine simulated %d instructions, the cells account for %.0f", eng.InstructionsSimulated, instr))
	}
	out.addCounters(counters)

	if traced {
		l := serverLayers(before, after)
		l["server.sse_events"] = float64(events)
		l["sweep.cells"] = float64(len(res.Cells))
		l["sweep.expand_ms"] = expandMillis(spec)
		l["runner.jobs_requested"] = float64(eng.SimsRequested)
		l["workload.hits"] = float64(eng.WorkloadHits)
		synth := synthSeconds(specWorkloads(spec))
		if fleet {
			synth *= 2 // each worker synthesizes its own
		}
		l["workload.synth_s"] = synth
		l["sim.migrations"] = migrations
		l["sim.context_switches"] = switches
		if instr > 0 {
			l["runtime.allocs_per_minstr"] = (mallocs1 - mallocs0) / (instr / 1e6)
		}
		l["store.puts"] = float64(eng.StorePuts)
		l["store.hits"] = float64(eng.StoreHits)
		if s := stats.Store; s != nil {
			l["store.entries"] = float64(s.Entries)
			l["store.bytes"] = float64(s.Bytes)
		}
		if l["store.get_us"], l["store.put_us"], err = storeReplay(storeDir, dir); err != nil {
			return unit{}, err
		}
		if q := stats.Queue; q != nil {
			l["queue.heartbeats"] = float64(q.Heartbeats)
			l["queue.expirations"] = float64(q.Expirations)
			l["queue.failures"] = float64(q.Failures)
			l["queue.dead"] = dead
		}
		var ws workerStats
		for _, p := range procs {
			f, err := os.Open(p.logPath)
			if err != nil {
				return unit{}, err
			}
			recs := parseJSONLog(f)
			f.Close()
			out.spans = append(out.spans, logSpans(recs)...)
			if p != d {
				ws.add(recs, tPost)
			}
		}
		if fleet {
			l["worker.executions"] = float64(ws.executions)
			l["worker.busy_s"] = ws.busy
			l["worker.idle_share"] = 1 - ws.busy/(2*window)
			l["store.puts"] += float64(ws.executions)
			if ws.leases > 0 {
				l["queue.wait_s"] = ws.wait / float64(ws.leases)
			}
		}
		if len(profData) > 0 {
			if out.profile, err = parseProfile(profData); err != nil {
				return unit{}, err
			}
		}
		out.layers = l
	}
	return unit{setup: setup, window: window, ops: instr / 1e6, cpu: cpu1 - cpu0, rss: rss}, nil
}

func missing(ok bool, what string, i int) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s %d never arrived on the event stream", what, i)
}

// streamSweep reads the sweep's SSE stream to its terminal event.
func streamSweep(ctx context.Context, hc *http.Client, base, id, reqID string, fn func(sseEvent)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	return readSSE(resp.Body, fn)
}

// cpuOf sums the processes' CPU seconds so far.
func cpuOf(ps []*proc) float64 {
	var total float64
	for _, p := range ps {
		total += p.cpuSeconds()
	}
	return total
}

// waitPolling waits until n long-poll lease requests (the workers) are in
// flight at the control plane, besides the scrape asking.
func waitPolling(ctx context.Context, hc *http.Client, base string, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s, err := scrapeMetrics(ctx, hc, base)
		if err != nil {
			return err
		}
		if s.sum("slicc_http_requests_in_flight", nil) >= float64(n+1) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("workers not polling within 30s")
}

// counted reports whether a route's requests count as served requests:
// streams, queue long polls and the benchmark's own probes do not.
func counted(ls map[string]string) bool {
	r := ls["route"]
	return r != "/v1/sweeps/{id}/events" && r != "/metrics" && r != "/healthz" && !strings.HasPrefix(r, "/v1/queue/")
}

// serverLayers derives the server layer's metrics from two /metrics
// scrapes bracketing the measured window.
func serverLayers(before, after scrape) map[string]float64 {
	d := delta(before, after)
	hits := d.sum("slicc_response_cache_hits_total", nil)
	misses := d.sum("slicc_response_cache_misses_total", nil)
	l := map[string]float64{
		"server.requests":     d.sum("slicc_http_requests_total", counted),
		"server.busy_s":       d.sum("slicc_http_request_duration_seconds_sum", counted),
		"server.not_modified": d.sum("slicc_http_not_modified_total", nil),
		"server.sse_dropped":  d.sum("slicc_sse_dropped_total", nil),
	}
	if hits+misses > 0 {
		l["server.respcache_hit_ratio"] = hits / (hits + misses)
	}
	return l
}

// workerStats sums the fleet's lease-to-ack intervals from the workers'
// debug logs.
type workerStats struct {
	executions, leases int
	busy, wait         float64 // seconds; wait runs from submission to lease
}

// add reads one worker's log.
func (w *workerStats) add(recs []logRec, submitted time.Time) {
	leased := map[string]time.Time{}
	for _, r := range recs {
		id, _ := r.Attrs["id"].(string)
		switch r.Msg {
		case "worker: leased":
			leased[id] = r.Time
			w.leases++
			w.wait += r.Time.Sub(submitted).Seconds()
		case "worker: completed":
			if t, ok := leased[id]; ok {
				w.executions++
				w.busy += r.Time.Sub(t).Seconds()
			}
		}
	}
}
