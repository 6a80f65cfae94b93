package sim_test

// Differential tests for the event-horizon scheduler: RunContext's batched
// loop must produce bit-identical results — counters, cycles, event logs,
// per-core stats, transaction latencies — to the one-instruction-per-scan
// reference loop (Machine.UseReferenceLoop), across every policy family
// and machine feature that touches the hot path. The reference loop also
// decodes ops through plain Source.Next, so these runs double as
// NextBatch-vs-Next equivalence checks over real workloads.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"slicc/internal/prefetch"
	"slicc/internal/sched"
	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/trace"
	"slicc/internal/workload"
)

// tinyWorkload synthesizes a small but feature-complete OLTP workload.
var tinyConfig = workload.Config{Kind: workload.TPCC1, Threads: 10, Seed: 3, Scale: 0.02}

func tinyWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	return workload.New(tinyConfig)
}

// runBoth executes the same configuration under the batched and reference
// schedulers and requires deeply equal results.
func runBoth(t *testing.T, name string, cfg sim.Config, threads []trace.Thread, newPolicy func() sim.Policy, newPref func() sim.Prefetcher) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		var pref sim.Prefetcher
		if newPref != nil {
			pref = newPref()
		}
		fast := sim.New(cfg, newPolicy(), pref, threads)
		got := fast.Run()

		if newPref != nil {
			pref = newPref()
		}
		slow := sim.New(cfg, newPolicy(), pref, threads)
		slow.UseReferenceLoop(true)
		want := slow.Run()

		if !reflect.DeepEqual(got, want) {
			t.Errorf("batched result diverges from reference:\n got: %+v\nwant: %+v", got, want)
		}
	})
}

func TestEventHorizonMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	w := tinyWorkload(t)
	threads := w.Threads()

	runBoth(t, "base", sim.Config{Cores: 8}, threads,
		func() sim.Policy { return sched.NewBaseline() }, nil)

	runBoth(t, "base-1core", sim.Config{Cores: 1}, threads,
		func() sim.Policy { return sched.NewBaseline() }, nil)

	runBoth(t, "steps-events", sim.Config{Cores: 4, LogEvents: true}, threads,
		func() sim.Policy { return sched.NewSTEPS() }, nil)

	runBoth(t, "slicc-events", sim.Config{Cores: 8, LogEvents: true}, threads,
		func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil)

	runBoth(t, "slicc-sw-yield", sim.Config{Cores: 8, LogEvents: true}, threads,
		func() sim.Policy {
			cfg := islicc.DefaultConfig(islicc.SW)
			cfg.YieldOnStay = true
			return islicc.New(cfg)
		}, nil)

	runBoth(t, "slicc-exact", sim.Config{Cores: 4}, threads,
		func() sim.Policy {
			cfg := islicc.DefaultConfig(islicc.Oblivious)
			cfg.ExactSearch = true
			return islicc.New(cfg)
		}, nil)

	// Fetch observers (prefetcher, TLB, classification, reuse tracking)
	// disable the fast fetch/data paths; the two loops must still agree.
	classify := sim.Config{Cores: 4, EnableTLB: true, TrackReuse: true}
	classify.L1I.Classify = true
	classify.L1D.Classify = true
	runBoth(t, "observed-machine", classify, threads,
		func() sim.Policy { return sched.NewBaseline() },
		func() sim.Prefetcher { return prefetch.NewNextLine() })

	runBoth(t, "peer-transfer", sim.Config{Cores: 4, InstrPeerTransfer: true}, threads,
		func() sim.Policy { return sched.NewBaseline() }, nil)

	// The MaxInstructions abort must trigger at the same instruction.
	runBoth(t, "aborted", sim.Config{Cores: 4, MaxInstructions: 5000}, threads,
		func() sim.Policy { return sched.NewBaseline() }, nil)

	// Core counts that are not powers of two leave idle padding leaves in
	// the event queue's tree.
	runBoth(t, "base-3core", sim.Config{Cores: 3}, threads,
		func() sim.Policy { return sched.NewBaseline() }, nil)
	runBoth(t, "slicc-12core", sim.Config{Cores: 12, LogEvents: true}, threads,
		func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil)

	// Fewer threads than cores: idle leaves beside running ones, and
	// longer streaks.
	runBoth(t, "slicc-sw-sparse", sim.Config{Cores: 16, LogEvents: true}, threads,
		func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.SW)) }, nil)

	// The directory's maximum core count, with every core busy.
	wide := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 72, Seed: 3, Scale: 0.002}).Threads()
	runBoth(t, "slicc-64core", sim.Config{Cores: 64, LogEvents: true}, wide,
		func() sim.Policy { return islicc.New(islicc.DefaultConfig(islicc.Oblivious)) }, nil)
}

// TestEventHorizonMatchesReferenceTrace replays a recorded v2 container so
// the differential run exercises FileSource.NextBatch against its plain
// Next decoder inside the machine.
func TestEventHorizonMatchesReferenceTrace(t *testing.T) {
	w := tinyWorkload(t)
	path := filepath.Join(t.TempDir(), "wl.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteWorkload(f, "diff", w.Threads()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.OpenWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	runBoth(t, "trace-base", sim.Config{Cores: 8}, c.Threads(),
		func() sim.Policy { return sched.NewBaseline() }, nil)
	runBoth(t, "trace-steps", sim.Config{Cores: 4, LogEvents: true}, c.Threads(),
		func() sim.Policy { return sched.NewSTEPS() }, nil)
}

// TestSteadyStateAllocs asserts the simulation loop does not allocate per
// instruction: runs differing by ~160k instructions must allocate the same
// within a small constant (machine construction, op-cache bookkeeping).
func TestSteadyStateAllocs(t *testing.T) {
	w := workload.New(workload.Config{Kind: workload.TPCC1, Threads: 8, Seed: 5, Scale: 0.05})
	threads := w.Threads()
	run := func(max uint64) func() {
		return func() {
			m := sim.New(sim.Config{Cores: 4, MaxInstructions: max}, sched.NewBaseline(), nil, threads)
			m.Run()
		}
	}
	// Warm the workload's op-stream cache so recording garbage is not
	// charged to the measured runs.
	run(0)()
	run(0)()

	short := testing.AllocsPerRun(5, run(40_000))
	long := testing.AllocsPerRun(5, run(200_000))
	if diff := long - short; diff > 100 {
		t.Fatalf("steady-state loop allocates: %.0f extra allocs over 160k extra instructions (short %.0f, long %.0f)",
			diff, short, long)
	}
}
