package sweep

// Sweep-throughput benchmark: cells/sec for a cold same-workload family,
// batched (lockstep gangs over the workload's op cache) versus scalar
// (each cell run on its own). The batched/scalar cells-per-second ratio is the
// headline number lockstep batching is accountable for in BENCH_SIM.json,
// and the CI bench gate checks it stays above its floor.
//
// Regenerate the BENCH_SIM.json series with:
//
//	go test -run '^$' -bench BenchmarkSweepBatch -benchtime 3x ./internal/sweep/

import (
	"context"
	"testing"

	"slicc/internal/runner"
)

// benchSpec is a fig7-shaped single-workload family: one op stream, five
// SLICC-SW threshold cells plus the baseline reference, all cold.
func benchSpec() Spec {
	return Spec{
		Name:      "bench-batch",
		Workloads: []string{"tpcc1"},
		Policies:  []string{"slicc-sw"},
		Threads:   Ints(16),
		Scales:    Floats(0.1),
		FillUpT:   Ints(128, 256),
		MatchedT:  Ints(4, 8),
	}
}

func benchSweep(b *testing.B, run func(context.Context, *runner.Pool, Spec) (*Result, error)) {
	spec := benchSpec()
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh pool per iteration keeps every cell cold: no dedup memo,
		// no workload cache, no op cache recordings surviving between runs.
		pool := runner.New(runner.Options{Workers: 1})
		res, err := run(context.Background(), pool, spec)
		if err != nil {
			b.Fatal(err)
		}
		cells += len(res.Cells) + len(res.Baselines)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	}
}

// BenchmarkSweepBatch measures cold sweep throughput on both paths; the
// batched/scalar ratio is the lockstep-batching win.
func BenchmarkSweepBatch(b *testing.B) {
	b.Run("batched", func(b *testing.B) { benchSweep(b, Run) })
	b.Run("scalar", func(b *testing.B) { benchSweep(b, RunUnbatched) })
}
