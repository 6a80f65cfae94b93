package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"slicc"
)

// These tests run the workloads end to end at a small size against
// sliccd and sliccworker built from this checkout.

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

func testOptions(t *testing.T) options {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs sliccd; skipped with -short")
	}
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "perfbench-bin-")
		if binErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/sliccd", "./cmd/sliccworker")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			binErr = err
			t.Logf("%s", out)
		}
	})
	if binErr != nil {
		t.Fatal("building sliccd and sliccworker:", binErr)
	}
	return options{seed: 2, seconds: 0.001, bin: binDir, tmp: t.TempDir(), workers: 2}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

func smallSpec(seed int64) slicc.SweepSpec {
	return slicc.SweepSpec{
		Workloads: []string{"tpcc1", "phased"},
		Policies:  []string{"base", "slicc-sw", "steps"},
		Threads:   slicc.SweepInts(4),
		Scales:    slicc.SweepFloats(0.05),
		Seeds:     slicc.SweepInts(int(seed)),
	}
}

func mustClean(t *testing.T, name string, o *outcome) {
	t.Helper()
	if o.failed != 0 || o.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", name, o.failed, o.attempted, o.notes)
	}
}

// The deterministic counters and the result digest repeat exactly across
// runs, and the standalone and distributed paths produce the same cells.
func TestServiceCountersRepeatAndPathsAgree(t *testing.T) {
	o := testOptions(t)
	spec := smallSpec(o.seed)
	a, err := service(o, false, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "sweep-sse", a)
	b, err := service(o, false, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "sweep-sse again", b)
	if !reflect.DeepEqual(a.counters, b.counters) || a.digest != b.digest {
		t.Fatalf("sweep-sse did not repeat: %v %s vs %v %s", a.counters, a.digest, b.counters, b.digest)
	}
	f, err := service(o, false, true, spec)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "fleet-sweep", f)
	if f.digest != a.digest {
		t.Fatalf("fleet-sweep digest %s, sweep-sse %s", f.digest, a.digest)
	}
	for _, k := range []string{"sim.instructions", "runner.jobs_executed", "runner.dedup_hits"} {
		if f.counters[k] != a.counters[k] {
			t.Errorf("%s: fleet %v, standalone %v", k, f.counters[k], a.counters[k])
		}
	}
	if q := f.counters["queue.enqueued"]; q == 0 || q != f.counters["queue.leases"] {
		t.Errorf("fleet enqueued %v and leased %v", q, f.counters["queue.leases"])
	}
}

func TestColdGridCountersRepeat(t *testing.T) {
	o := testOptions(t)
	spec := slicc.SweepSpec{
		Preset: "fig7-thresholds", Threads: slicc.SweepInts(8), Scales: slicc.SweepFloats(0.05),
		Seeds: slicc.SweepInts(int(o.seed)), FillUpT: slicc.SweepInts(128), MatchedT: slicc.SweepInts(2, 4),
	}
	var runs []*outcome
	for i := 0; i < 2; i++ {
		out, err := coldGrid(o, false, spec, []string{"table1"})
		if err != nil {
			t.Fatal(err)
		}
		mustClean(t, "cold-grid", out)
		runs = append(runs, out)
	}
	if !reflect.DeepEqual(runs[0].counters, runs[1].counters) || runs[0].digest != runs[1].digest {
		t.Fatalf("cold-grid did not repeat: %v vs %v", runs[0].counters, runs[1].counters)
	}
	if runs[0].counters["runner.cells_batched"] == 0 {
		t.Error("the sweep did not take the batched path")
	}
}

func TestWarmGetServesTheWarmingBodies(t *testing.T) {
	o := testOptions(t)
	o.seconds = 0.5
	cfgs := warmConfigs(o.seed)[:1]
	out, err := warmGet(o, false, smallSpec(o.seed), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "warm-get", out)
	if len(out.units) != warmUnits {
		t.Fatalf("%d units, want %d", len(out.units), warmUnits)
	}
}

// A result that differs from the warming run's counts as a failed op.
func TestCorruptedResultIsAFailedOp(t *testing.T) {
	o := testOptions(t)
	ctx := context.Background()
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	mix, err := warm(ctx, o, dir, storeDir, smallSpec(o.seed), warmConfigs(o.seed)[:1])
	if err != nil {
		t.Fatal(err)
	}
	d, err := startProc(filepath.Join(o.bin, "sliccd"), []string{"-store", storeDir, "-addr", "127.0.0.1:0", "-j", strconv.Itoa(o.workers)}, filepath.Join(dir, "d.log"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if err := waitHealthy(ctx, hc, d.url()); err != nil {
		t.Fatal(err)
	}
	var out outcome
	for _, r := range mix[:2] { // re-POST the sweep, then GET it
		_, err := doMix(ctx, hc, nil, d.url(), "", r)
		out.op(err)
	}
	mustClean(t, "honest mix", &out)
	corrupt := mix[1]
	corrupt.want = append([]byte(nil), corrupt.want...)
	corrupt.want[len(corrupt.want)/2] ^= 1
	_, err = doMix(ctx, hc, nil, d.url(), "", corrupt)
	out.op(err)
	if out.failed != 1 || out.attempted != 3 {
		t.Fatalf("corrupted body: %d of %d ops failed", out.failed, out.attempted)
	}

	// The same holds on the stream path: a cell whose SSE rendering
	// differs from the JSON result fails the rendering check.
	var view struct {
		Result *slicc.SweepResult `json:"result"`
	}
	if err := json.Unmarshal(mix[0].want, &view); err != nil || view.Result == nil {
		t.Fatal("warming sweep body:", err)
	}
	res := view.Result
	cells, bases := map[int]slicc.SweepCellResult{}, map[int]slicc.SweepCellResult{}
	for i, c := range res.Cells {
		cells[i] = c
	}
	for i, c := range res.Baselines {
		bases[i] = c
	}
	csvBody := mix[2].want // the warming run's ?format=csv body
	if err := checkRenderings(res, cells, bases, csvBody); err != nil {
		t.Fatal("honest renderings disagree:", err)
	}
	bad := cells[0]
	bad.Cycles++
	cells[0] = bad
	if checkRenderings(res, cells, bases, csvBody) == nil {
		t.Fatal("a corrupted SSE cell passed the rendering check")
	}
}

// A traced pass reports every per-layer metric, and the layers it
// exercises are non-zero.
func TestTracedServicePassReportsLayers(t *testing.T) {
	o := testOptions(t)
	spec := smallSpec(o.seed)
	plain, err := service(o, false, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := service(o, true, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	mustClean(t, "traced sweep-sse", traced)
	m := traced.perLayer(plain)
	if len(m) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(m), len(layerMetrics))
	}
	for _, k := range []string{"sweep.run_s", "runner.job_s", "sim.run_s", "sim.ns_per_instr", "store.entries", "store.get_us", "server.sse_events"} {
		if m[k].Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k].Value)
		}
	}
	if m["span.unattributed_share"].Value >= 0.5 {
		t.Errorf("half the sweep-sse window is unattributed: %v", m["span.unattributed_share"].Value)
	}
}

// BENCHMARK.json lists exactly the metrics perfbench prints.
func TestBenchmarkJSONMatchesPrintedMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, perfbench has %v", names, workloadNames())
	}
	e2e := (&outcome{units: []unit{{setup: 1, window: 1, ops: 1, cpu: 1, rss: 1}}}).endToEnd()
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics listed, perfbench prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q, perfbench prints %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics listed, perfbench prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: %s %s, perfbench prints %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
