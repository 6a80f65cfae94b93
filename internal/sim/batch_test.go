package sim_test

// Differential tests for lockstep batching: RunBatch must produce results
// bit-identical to each machine's own scalar Run — across policy families,
// machine features, mixed configurations inside one batch, quantum sizes,
// and the gang's thread source (BatchThreads, which records every thread
// into the op cache on the first machine's replay) versus a fresh
// workload's generator sources.

import (
	"context"
	"reflect"
	"testing"

	"slicc/internal/prefetch"
	"slicc/internal/sched"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/trace"
	"slicc/internal/workload"
)

// batchCell is one machine configuration of a differential batch.
type batchCell struct {
	name      string
	cfg       sim.Config
	newPolicy func() sim.Policy
	newPref   func() sim.Prefetcher
}

func (c batchCell) machine(threads []trace.Thread) *sim.Machine {
	var pref sim.Prefetcher
	if c.newPref != nil {
		pref = c.newPref()
	}
	return sim.New(c.cfg, c.newPolicy(), pref, threads)
}

// runBatchAgainstScalar runs every cell twice — once inside a single
// RunBatch pass over the gang's thread source (BatchThreads), once alone on
// the scalar path over a fresh build of the same workload config — and
// requires deeply equal results per cell. The comparison therefore covers
// the lockstep scheduler, the quantum boundaries, and the op cache
// recording the gang replays in one shot.
func runBatchAgainstScalar(t *testing.T, cfg workload.Config, quantum uint64, cells []batchCell) {
	t.Helper()
	batchThreads := workload.New(cfg).BatchThreads()
	machines := make([]*sim.Machine, len(cells))
	for i, c := range cells {
		machines[i] = c.machine(batchThreads)
	}
	got, err := sim.RunBatch(context.Background(), machines, quantum)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, c := range cells {
		want := c.machine(workload.New(cfg).Threads()).Run()
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: batched result diverges from scalar:\n got: %+v\nwant: %+v", c.name, got[i], want)
		}
	}
}

// matrixCells is the policy/feature matrix every batch variant is checked
// against; it mirrors the event-horizon differential matrix.
func matrixCells() []batchCell {
	classify := sim.Config{Cores: 4, EnableTLB: true, TrackReuse: true}
	classify.L1I.Classify = true
	classify.L1D.Classify = true
	return []batchCell{
		{"base", sim.Config{Cores: 8},
			func() sim.Policy { return sched.NewBaseline() }, nil},
		{"base-1core", sim.Config{Cores: 1},
			func() sim.Policy { return sched.NewBaseline() }, nil},
		{"steps-events", sim.Config{Cores: 4, LogEvents: true},
			func() sim.Policy { return sched.NewSTEPS() }, nil},
		{"slicc-events", sim.Config{Cores: 8, LogEvents: true},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil},
		{"slicc-sw-yield", sim.Config{Cores: 8, LogEvents: true},
			func() sim.Policy {
				cfg := islicc.DefaultConfig(islicc.SW)
				cfg.YieldOnStay = true
				return islicc.New(cfg)
			}, nil},
		{"slicc-exact", sim.Config{Cores: 4},
			func() sim.Policy {
				cfg := islicc.DefaultConfig(islicc.Oblivious)
				cfg.ExactSearch = true
				return islicc.New(cfg)
			}, nil},
		{"observed-machine", classify,
			func() sim.Policy { return sched.NewBaseline() },
			func() sim.Prefetcher { return prefetch.NewNextLine() }},
		{"peer-transfer", sim.Config{Cores: 4, InstrPeerTransfer: true},
			func() sim.Policy { return sched.NewBaseline() }, nil},
		// The MaxInstructions abort must trip at the same instruction while
		// the rest of the batch runs to completion around it.
		{"aborted", sim.Config{Cores: 4, MaxInstructions: 5000},
			func() sim.Policy { return sched.NewBaseline() }, nil},
	}
}

func TestBatchMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	// The whole matrix runs as ONE mixed batch: heterogeneous core counts,
	// policies, observers and an aborting cell interleaved in one pass.
	runBatchAgainstScalar(t, tinyConfig, 0, matrixCells())
}

// TestBatchMatchesScalarScenarios repeats the check over the scenario
// workload families, whose phase changes and skew exercise scheduling
// patterns TPC-C does not.
func TestBatchMatchesScalarScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	family := []batchCell{
		{"base", sim.Config{Cores: 8},
			func() sim.Policy { return sched.NewBaseline() }, nil},
		{"slicc", sim.Config{Cores: 8},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil},
		{"slicc-sw", sim.Config{Cores: 4},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.SW)) }, nil},
		{"steps", sim.Config{Cores: 4},
			func() sim.Policy { return sched.NewSTEPS() }, nil},
	}
	for _, kind := range []workload.Kind{workload.Phased, workload.Skewed, workload.Microservice} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := workload.Config{Kind: kind, Threads: 8, Seed: 7, Scale: 0.02}
			runBatchAgainstScalar(t, cfg, 0, family)
		})
	}
}

// TestBatchQuantumInvariance pins the quantum-boundary claim directly: the
// rotation granularity must be invisible in the results, from one
// instruction per turn to effectively run-to-completion.
func TestBatchQuantumInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	cells := []batchCell{
		{"base", sim.Config{Cores: 8},
			func() sim.Policy { return sched.NewBaseline() }, nil},
		{"slicc", sim.Config{Cores: 4},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil},
		// An odd core count pads the event queue's tree; at quantum 1 every
		// instruction pauses and resumes mid-streak.
		{"slicc-5core", sim.Config{Cores: 5},
			func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil},
	}
	for _, quantum := range []uint64{1, 257, 1 << 40} {
		runBatchAgainstScalar(t, tinyConfig, quantum, cells)
	}
}

// TestBatchCancel verifies RunBatch's cancellation contract: ctx.Err() is
// returned and unfinished machines report aborted partial results.
func TestBatchCancel(t *testing.T) {
	threads := tinyWorkload(t).BatchThreads()
	cells := []batchCell{
		{"a", sim.Config{Cores: 4}, func() sim.Policy { return sched.NewBaseline() }, nil},
		{"b", sim.Config{Cores: 8}, func() sim.Policy { return sched.NewBaseline() }, nil},
	}
	machines := make([]*sim.Machine, len(cells))
	for i, c := range cells {
		machines[i] = c.machine(threads)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := sim.RunBatch(ctx, machines, 0)
	if err != context.Canceled {
		t.Fatalf("RunBatch on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if len(results) != len(cells) {
		t.Fatalf("got %d partial results, want %d", len(results), len(cells))
	}
	for i, r := range results {
		if !r.Aborted {
			t.Errorf("machine %d: partial result not marked aborted", i)
		}
	}
}

// TestBatchSteadyStateAllocs asserts the lockstep loop does not allocate
// per instruction: batch runs differing by ~320k instructions must
// allocate the same within a small constant.
func TestBatchSteadyStateAllocs(t *testing.T) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 8, Seed: 5, Scale: 0.05})
	threads := w.BatchThreads()
	run := func(max uint64) func() {
		return func() {
			ms := []*sim.Machine{
				sim.New(sim.Config{Cores: 4, MaxInstructions: max}, sched.NewBaseline(), nil, threads),
				sim.New(sim.Config{Cores: 8, MaxInstructions: max}, sched.NewBaseline(), nil, threads),
			}
			if _, err := sim.RunBatch(context.Background(), ms, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(0)() // warm anything one-time
	short := testing.AllocsPerRun(5, run(40_000))
	long := testing.AllocsPerRun(5, run(200_000))
	if diff := long - short; diff > 100 {
		t.Fatalf("batch loop allocates: %.0f extra allocs over 320k extra instructions (short %.0f, long %.0f)",
			diff, short, long)
	}
}
