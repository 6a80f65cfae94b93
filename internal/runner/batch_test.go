package runner

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"slicc/internal/sim"
	islicc "slicc/internal/slicc"
	"slicc/internal/trace"
	"slicc/internal/workload"
)

// batchFamily is a sweep-shaped job set: six distinct configurations of
// one workload (a lockstep family) plus a second-workload singleton that
// must fall through to the scalar path.
func batchFamily() []Job {
	wl := tinyWorkload()
	jobs := []Job{
		{Workload: wl, Machine: sim.Config{Cores: 16}},
		{Workload: wl, Machine: sim.Config{Cores: 8}},
		{Workload: wl, Machine: sim.Config{Cores: 16}, Policy: PolicySpec{Kind: STEPS}},
		{Workload: wl, Machine: sim.Config{Cores: 16}, Policy: PolicySpec{Kind: NextLine}},
		{Workload: wl, Machine: sim.Config{Cores: 16},
			Policy: PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.Oblivious)}},
		{Workload: wl, Machine: sim.Config{Cores: 16, TrackReuse: true, LogEvents: true},
			Policy: PolicySpec{Kind: SLICC, SLICC: islicc.DefaultConfig(islicc.SW)}},
	}
	other := tinyWorkload()
	other.Seed = 9
	jobs = append(jobs, Job{Workload: other, Machine: sim.Config{Cores: 16}})
	return jobs
}

func TestRunBatchedMatchesRun(t *testing.T) {
	jobs := batchFamily()
	scalar, err := New(Options{Workers: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{Workers: 4})
	batched, err := p.RunBatched(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar, batched) {
		t.Fatal("batched results diverge from scalar results")
	}
	s := p.Stats()
	// Six batched cells run as two gangs of maxGangMachines(4) and 2.
	if s.JobsExecuted != 7 || s.JobsBatched != 6 || s.BatchesExecuted != 2 {
		t.Fatalf("stats = %+v, want 7 executed / 6 batched / 2 gangs", s)
	}
	var want uint64
	for _, r := range scalar {
		want += r.Sim.Instructions
	}
	if s.Instructions != want {
		t.Fatalf("batched pool counted %d instructions, want %d (the cells' own totals)", s.Instructions, want)
	}
}

// TestRunBatchedStoreInterleaving pins the store contract: per-cell keys
// are unchanged (scalar-warmed entries serve the batch and vice versa),
// hits shrink the batch to its misses, and the interleaved results stay
// byte-identical to a pure scalar run.
func TestRunBatchedStoreInterleaving(t *testing.T) {
	jobs := batchFamily()[:6] // one six-cell family
	dir := t.TempDir()

	want, err := New(Options{Workers: 4}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-warm half the cells through the scalar path.
	warmer := New(Options{Workers: 4, Memo: NewStoreMemo(openStore(t, dir))})
	if _, err := warmer.Run(context.Background(), jobs[:3]); err != nil {
		t.Fatal(err)
	}

	// A fresh pool over the same store batches the full family: the three
	// warmed cells must come back from disk and only the misses simulate.
	p := New(Options{Workers: 4, Memo: NewStoreMemo(openStore(t, dir))})
	got, err := p.RunBatched(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.StoreHits != 3 || s.JobsExecuted != 3 || s.JobsBatched != 3 || s.BatchesExecuted != 1 {
		t.Fatalf("half-warmed stats = %+v, want 3 store hits / 3 executed / 3 batched / 1 batch", s)
	}
	for i := range want {
		a, b := want[i], got[i]
		a.Err, b.Err = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cell %d: interleaved result differs from scalar:\n%+v\nvs\n%+v", i, a, b)
		}
	}

	// Reverse direction: the batch's Puts must serve a scalar run 100%.
	rev := New(Options{Workers: 4, Memo: NewStoreMemo(openStore(t, dir))})
	back, err := rev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := rev.Stats(); s.JobsExecuted != 0 || s.StoreHits != 6 {
		t.Fatalf("batch-warmed scalar stats = %+v, want 0 executed / 6 store hits", s)
	}
	for i := range want {
		a, b := want[i], back[i]
		a.Err, b.Err = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cell %d: batch-warmed result differs from scalar", i)
		}
	}

	// And a fully-warmed batched rerun executes nothing.
	again := New(Options{Workers: 4, Memo: NewStoreMemo(openStore(t, dir))})
	if _, err := again.RunBatched(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if s := again.Stats(); s.JobsExecuted != 0 || s.StoreHits != 6 || s.BatchesExecuted != 0 {
		t.Fatalf("fully-warmed batched stats = %+v, want 0 executed / 6 store hits / 0 batches", s)
	}
}

// TestRunBatchedCancellation mirrors Run's contract: a cancelled context
// surfaces promptly and claimed cells are released for retry.
func TestRunBatchedCancellation(t *testing.T) {
	p := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunBatched(ctx, batchFamily()[:4]); err == nil {
		t.Fatal("RunBatched on cancelled ctx returned nil error")
	}
	// The cells must be retryable on a live context.
	rs, err := p.RunBatched(context.Background(), batchFamily()[:4])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("cell %d failed after retry: %v", i, r.Err)
		}
	}
}

// TestBatchThreadsMatchesThreads checks the workload-level contract the
// batch path rests on: BatchThreads yields the same thread metadata as
// Threads, primes the op cache so that a thread's very first replay
// already comes from the compact recording rather than the generator, and
// that recording is byte-identical to the generator's stream.
func TestBatchThreadsMatchesThreads(t *testing.T) {
	cfg := workload.Config{Kind: workload.TPCE, Threads: 4, Seed: 11, Scale: 0.02}
	w := workload.New(cfg)
	bt := w.BatchThreads()
	ths := workload.New(cfg).Threads() // an unprimed twin: generator sources
	if len(bt) != len(ths) {
		t.Fatalf("BatchThreads returned %d threads, want %d", len(bt), len(ths))
	}
	for i := range ths {
		if bt[i].ID != ths[i].ID || bt[i].Type != ths[i].Type || bt[i].TypeName != ths[i].TypeName {
			t.Fatalf("thread %d metadata diverges: %+v vs %+v", i, bt[i], ths[i])
		}
		a, b := bt[i].New(), ths[i].New()
		if _, ok := a.(trace.BatchSource); !ok {
			t.Fatalf("thread %d: first replay after BatchThreads is %T, want the op cache recording", i, a)
		}
		if _, ok := b.(trace.BatchSource); ok {
			t.Fatalf("thread %d: unprimed first replay is %T, want the generator", i, b)
		}
		n := 0
		for {
			opA, okA := a.Next()
			opB, okB := b.Next()
			if okA != okB {
				t.Fatalf("thread %d: stream lengths diverge at op %d", i, n)
			}
			if !okA {
				break
			}
			if opA != opB {
				t.Fatalf("thread %d op %d: %+v vs %+v", i, n, opA, opB)
			}
			n++
		}
	}
}

// TestBatchAllocatesLikeScalar pins the gang path's memory cost to the
// scalar path's: a four-cell family run batched on a fresh pool must not
// allocate a decoded op table's worth (24 bytes per op of one replay of
// the workload) more than the same cells run scalar on a fresh pool. Both
// paths record each thread once into the op cache; nothing else may scale
// with the stream length.
func TestBatchAllocatesLikeScalar(t *testing.T) {
	wl := workload.Config{Kind: workload.TPCC1, Threads: 8, Seed: 5, Scale: 0.05}
	var jobs []Job
	for _, cores := range []int{4, 8, 12, 16} {
		jobs = append(jobs, Job{Workload: wl, Machine: sim.Config{Cores: cores}})
	}
	measure := func(run func(*Pool, context.Context, []Job) ([]Result, error)) (alloc, ops uint64) {
		p := New(Options{Workers: 1})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rs, err := run(p, context.Background(), jobs)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, rs[0].Sim.Instructions
	}
	scalar, ops := measure((*Pool).Run)
	batched, _ := measure((*Pool).RunBatched)
	if batched > scalar && batched-scalar >= 24*ops {
		t.Fatalf("batched family allocated %d bytes vs %d scalar: %.1f extra bytes per op over %d ops",
			batched, scalar, float64(batched-scalar)/float64(ops), ops)
	}
	t.Logf("allocated %d bytes batched, %d scalar, %d ops per replay", batched, scalar, ops)
}
