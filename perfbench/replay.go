package main

// Layer costs with no span of their own are measured in the traced pass
// by replaying the workload's own inputs through the layer in process:
// sweep expansion, workload synthesis and store reads and writes.

import (
	"os"
	"path/filepath"
	"time"

	"slicc"
	"slicc/internal/store"
	"slicc/internal/workload"
)

// expandMillis is the median time to normalize, count and key the spec:
// the expansion work a sweep submission does before any cell runs.
func expandMillis(spec slicc.SweepSpec) float64 {
	var ts []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := spec.Normalized(); err != nil {
			return 0
		}
		if _, err := spec.CellCount(); err != nil {
			return 0
		}
		if _, err := spec.Key(); err != nil {
			return 0
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

// synthSeconds is the time to synthesize each workload once.
func synthSeconds(cfgs []workload.Config) float64 {
	var total time.Duration
	for _, c := range cfgs {
		t0 := time.Now()
		workload.New(c)
		total += time.Since(t0)
	}
	return total.Seconds()
}

// gridWorkloads are the workloads the quick experiment grid synthesizes.
func gridWorkloads(seed int64) []workload.Config {
	var out []workload.Config
	for _, k := range workload.Kinds() {
		threads := 40
		if k == workload.MapReduce {
			threads = 80
		}
		out = append(out, workload.Config{Kind: k, Threads: threads, Seed: seed, Scale: 0.35})
	}
	return out
}

// specWorkloads are the distinct workloads a sweep spec synthesizes.
func specWorkloads(spec slicc.SweepSpec) []workload.Config {
	var out []workload.Config
	n, err := spec.Normalized()
	if err != nil {
		return nil
	}
	for _, wl := range n.Workloads {
		k, err := workload.ParseKind(wl)
		if err != nil {
			continue
		}
		for _, th := range n.Threads.Values() {
			for _, sd := range n.Seeds.Values() {
				for _, sc := range n.Scales.Values() {
					out = append(out, workload.Config{Kind: k, Threads: th, Seed: int64(sd), Scale: sc})
				}
			}
		}
	}
	return out
}

// storeReplay reads every entry of the store at dir through store.Get,
// then writes each into a fresh store under tmpDir through store.Put,
// and returns the median microseconds of each.
func storeReplay(dir, tmpDir string) (getUS, putUS float64, err error) {
	src, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer src.Close()
	var keys []string
	if err := src.Scan(func(e store.EntryInfo) error {
		keys = append(keys, e.Key)
		return nil
	}); err != nil {
		return 0, 0, err
	}
	payloads := make([][]byte, len(keys))
	var gets []float64
	for i, k := range keys {
		t0 := time.Now()
		p, ok := src.Get(k)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		if ok {
			payloads[i] = p
		}
	}
	dstDir := filepath.Join(tmpDir, "replay-store")
	defer os.RemoveAll(dstDir)
	dst, err := store.Open(dstDir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer dst.Close()
	var puts []float64
	for i, k := range keys {
		if payloads[i] == nil {
			continue
		}
		t0 := time.Now()
		if err := dst.Put(k, payloads[i]); err != nil {
			return 0, 0, err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return finite(median(gets)), finite(median(puts)), nil
}
