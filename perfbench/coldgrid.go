package main

import (
	"bytes"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"slicc"
	"slicc/internal/telemetry"
)

// coldGridSpec is the fig7-thresholds preset at the quick experiment
// grid's size and thresholds (12 cells and two baselines): the grid's
// lockstep-batched phase. Its simulations are exactly the quick fig7
// experiment's, which then deduplicates onto them, so the whole workload
// does the work of `experiments -run all -quick`.
func coldGridSpec(seed int64) slicc.SweepSpec {
	return slicc.SweepSpec{
		Name:     "perfbench-fig7-quick",
		Preset:   "fig7-thresholds",
		Threads:  slicc.SweepInts(40),
		Scales:   slicc.SweepFloats(0.35),
		Seeds:    slicc.SweepInts(int(seed)),
		FillUpT:  slicc.SweepInts(128, 256),
		MatchedT: slicc.SweepInts(2, 4, 8),
	}
}

// runColdGrid runs the paper's grid cold in process: the fig7 sweep
// through Engine.Sweep, then every experiment id at quick size,
// concurrently, on one two-worker Engine with no store.
func runColdGrid(o options, traced bool) (*outcome, error) {
	return coldGrid(o, traced, coldGridSpec(o.seed), slicc.ExperimentIDs())
}

// setupBatch is how many engines one set-up timing builds.
const setupBatch = 400

func coldGrid(o options, traced bool, spec slicc.SweepSpec, ids []string) (*outcome, error) {
	out := &outcome{}
	ctx, sink := passContext(traced)

	// Per-op latency: each completed simulation, from the start of the
	// phase that submitted it.
	var mu sync.Mutex
	var phase time.Time
	doneSeen := 0
	progress := func(done, _ int) {
		mu.Lock()
		defer mu.Unlock()
		for ; doneSeen < done; doneSeen++ {
			out.lat = append(out.lat, float64(time.Since(phase).Microseconds()))
		}
	}

	// Set-up is engine construction, which takes about a microsecond:
	// time it in batches so the figure is not timer noise.
	var setups []float64
	for b := 0; b < 25; b++ {
		t0 := time.Now()
		for i := 0; i < setupBatch; i++ {
			e, err := slicc.NewEngine(slicc.EngineOptions{Workers: o.workers, Progress: progress})
			if err != nil {
				return nil, err
			}
			e.Close()
		}
		setups = append(setups, time.Since(t0).Seconds()/setupBatch)
	}
	eng, err := slicc.NewEngine(slicc.EngineOptions{Workers: o.workers, Progress: progress})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	var prof bytes.Buffer
	if traced {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	mctx, root := telemetry.StartSpan(ctx, "bench.measure")
	t0 := time.Now()
	mu.Lock()
	phase = t0
	mu.Unlock()

	sctx, sp := telemetry.StartSpan(mctx, "bench.sweep")
	res, sweepErr := eng.Sweep(sctx, spec)
	sp.End()

	mu.Lock()
	phase = time.Now()
	mu.Unlock()
	tables := make([][]slicc.ExperimentTable, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ectx, esp := telemetry.StartSpan(mctx, "bench.experiment", slog.String("id", id))
			tables[i], errs[i] = eng.Experiment(ectx, id, true, o.seed)
			esp.End()
		}()
	}
	wg.Wait()
	window := time.Since(t0)
	root.End()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	if traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
	}

	st := eng.Stats()
	u := unit{
		setup:  median(setups),
		window: window.Seconds(),
		ops:    float64(st.InstructionsSimulated) / 1e6,
		cpu:    rusageCPU(ru1) - rusageCPU(ru0),
		rss:    float64(ru1.Maxrss) / 1024,
	}
	out.add(u)
	// Every executed simulation is an op; a failed call fails one op more.
	for i := 0; i < st.SimsExecuted; i++ {
		out.op(nil)
	}
	if sweepErr != nil {
		out.op(fmt.Errorf("fig7 sweep: %w", sweepErr))
	}
	for i, err := range errs {
		if err != nil {
			out.op(fmt.Errorf("experiment %s: %w", ids[i], err))
		}
	}
	if sweepErr != nil {
		return out, nil
	}

	// Correctness: the pinned digest, the fig7 table against the sweep's
	// cells, and every cell against its single-simulation result.
	var text bytes.Buffer
	for _, ts := range tables {
		for _, t := range ts {
			t.Format(&text)
		}
	}
	out.pin("cold-grid", o.seed, digest(text.Bytes(), res.Cells, res.Baselines))
	for i, id := range ids {
		if id == "fig7" && errs[i] == nil {
			out.check(checkFig7(tables[i], res))
		}
	}
	var migrations, switches uint64
	for _, c := range res.Cells {
		cfg, err := cellConfig(c)
		if err != nil {
			out.check(err)
			continue
		}
		r, err := eng.Run(ctx, cfg) // a memo hit: the sweep already ran it
		if err == nil {
			err = agree(c, r)
		}
		out.check(err)
		migrations += r.Migrations
		switches += r.ContextSwitches
	}

	out.addCounters(map[string]float64{
		"sim.instructions":     float64(st.InstructionsSimulated),
		"runner.jobs_executed": float64(st.SimsExecuted),
		"runner.dedup_hits":    float64(st.DedupHits),
		"runner.store_hits":    float64(st.StoreHits),
		"workload.built":       float64(st.WorkloadsBuilt),
		"runner.cells_batched": float64(st.CellsBatched),
	})
	if traced {
		out.spans = sink.take()
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		out.profile = samples
		out.layers = map[string]float64{
			"sweep.cells":           float64(len(res.Cells)),
			"sweep.expand_ms":       expandMillis(spec),
			"runner.jobs_requested": float64(st.SimsRequested),
			"workload.hits":         float64(st.WorkloadHits),
			"workload.synth_s":      synthSeconds(gridWorkloads(o.seed)),
			"sim.migrations":        float64(migrations),
			"sim.context_switches":  float64(switches),
		}
		if st.InstructionsSimulated > 0 {
			out.layers["runtime.allocs_per_minstr"] = float64(ms1.Mallocs-ms0.Mallocs) / (float64(st.InstructionsSimulated) / 1e6)
		}
	}
	return out, nil
}

func rusageCPU(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// checkFig7 checks the fig7 experiment table against the sweep cells it
// shares simulations with: every table row must match its cell's
// rendered I-MPKI, D-MPKI and speedup.
func checkFig7(ts []slicc.ExperimentTable, res *slicc.SweepResult) error {
	if len(ts) != 1 {
		return fmt.Errorf("fig7: %d tables", len(ts))
	}
	type key struct{ wl, fu, mt string }
	cells := map[key]slicc.SweepCellResult{}
	for _, c := range res.Cells {
		b, err := slicc.ParseBenchmark(c.Workload)
		if err != nil {
			return err
		}
		cells[key{b.String(), strconv.Itoa(c.FillUpT), strconv.Itoa(c.MatchedT)}] = c
	}
	matched := 0
	for _, row := range ts[0].Rows {
		c, ok := cells[key{row[0], row[1], row[2]}]
		if !ok {
			continue // the baseline rows
		}
		matched++
		got := []string{fmt.Sprintf("%.2f", c.IMPKI), fmt.Sprintf("%.2f", c.DMPKI), fmt.Sprintf("%.3f", c.Speedup)}
		if row[3] != got[0] || row[4] != got[1] || row[5] != got[2] {
			return fmt.Errorf("fig7 row %v disagrees with sweep cell %v", row, got)
		}
	}
	if matched == 0 {
		return fmt.Errorf("fig7: no table row matched a sweep cell")
	}
	return nil
}
