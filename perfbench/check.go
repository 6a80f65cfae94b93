package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"slicc"
)

// pinnedDigests are the SHA-256 digests of each workload's simulated
// statistics at the default seed (1): the sweep's cells and baselines as
// JSON, and for cold-grid every experiment table as text. No host-time
// field enters them. sweep-sse and fleet-sweep run the same spec through
// different paths, so they share one digest. A change that alters
// simulator output must update these deliberately.
var pinnedDigests = map[string]string{
	"cold-grid":   "78135f3593646a111906c83b4010c6a4d998d69b2dc68728a7c8b820dfe2e3fc",
	"sweep-sse":   serviceDigest,
	"fleet-sweep": serviceDigest,
	"warm-get":    "fc6bcd36a11136532d7d874ac706ad0a4df352f5f277a3ec72a180685c798154",
}

const serviceDigest = "f25ef6cc48b25cc5be5ba9db7582e30c003a6ee1b6f775825b246ff9f93b7774"

// defaultSeed is the seed whose digests are pinned.
const defaultSeed = 1

// digest hashes values as JSON followed by any extra rendered text.
func digest(extra []byte, vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		b, _ := json.Marshal(v) // sweep results and tables always marshal
		h.Write(b)
	}
	h.Write(extra)
	return hex.EncodeToString(h.Sum(nil))
}

// checkPinned compares a unit's digest with the pinned one at the default
// seed; other seeds have no pinned digest.
func checkPinned(workload string, seed int64, got string) error {
	want := pinnedDigests[workload]
	if seed != defaultSeed || got == want {
		return nil
	}
	return fmt.Errorf("%s: result digest %s at seed %d, pinned %s", workload, got, seed, want)
}

// cellConfig is the single-simulation Config a sweep cell stands for.
func cellConfig(c slicc.SweepCellResult) (slicc.Config, error) {
	b, err := slicc.ParseBenchmark(c.Workload)
	if err != nil {
		return slicc.Config{}, err
	}
	p, err := slicc.ParsePolicy(c.Policy)
	if err != nil {
		return slicc.Config{}, err
	}
	return slicc.Config{
		Benchmark: b, Policy: p, Threads: c.Threads, Seed: c.Seed, Scale: c.Scale,
		Cores: c.Cores, L1IKB: c.L1IKB, L1DKB: c.L1DKB,
		SLICC: slicc.Params{FillUpT: c.FillUpT, MatchedT: c.MatchedT, DilutionT: c.DilutionT, ExactSearch: c.ExactSearch},
	}, nil
}

// agree checks that a single-simulation result reproduces a sweep cell
// and ran to completion: not aborted, every started thread finished.
func agree(c slicc.SweepCellResult, r slicc.Result) error {
	switch {
	case r.Aborted:
		return fmt.Errorf("cell %s/%s: result aborted", c.Workload, c.Policy)
	case r.ThreadsFinished != c.Threads:
		return fmt.Errorf("cell %s/%s: %d of %d threads finished", c.Workload, c.Policy, r.ThreadsFinished, c.Threads)
	case r.Instructions != c.Instructions || r.Cycles != c.Cycles || r.Migrations != c.Migrations ||
		!sameFloat(r.IMPKI, c.IMPKI) || !sameFloat(r.DMPKI, c.DMPKI):
		return fmt.Errorf("cell %s/%s: single run gives %d instr %.0f cycles %.4f I-MPKI, sweep %d %.0f %.4f",
			c.Workload, c.Policy, r.Instructions, r.Cycles, r.IMPKI, c.Instructions, c.Cycles, c.IMPKI)
	}
	return nil
}

// sameFloat compares two metrics to 1e-9 relative: the paths compute them
// with identical arithmetic, so this only absorbs JSON round-tripping.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkRenderings checks that a sweep's cells agree across the server's
// renderings: the SSE cell events, the JSON result and the CSV body
// (compared with the CSV the JSON result renders to).
func checkRenderings(res *slicc.SweepResult, events map[int]slicc.SweepCellResult, bases map[int]slicc.SweepCellResult, csvBody []byte) error {
	if len(events) != len(res.Cells) || len(bases) != len(res.Baselines) {
		return fmt.Errorf("stream carried %d cells and %d baselines, result has %d and %d",
			len(events), len(bases), len(res.Cells), len(res.Baselines))
	}
	for i, c := range res.Cells {
		if !sameCell(events[i], c) {
			return fmt.Errorf("cell %d: SSE event %+v, JSON %+v", i, events[i], c)
		}
	}
	for i, c := range res.Baselines {
		if !sameCell(bases[i], c) {
			return fmt.Errorf("baseline %d: SSE event %+v, JSON %+v", i, bases[i], c)
		}
	}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), csvBody) {
		return fmt.Errorf("CSV body (%d bytes) differs from the JSON result's rendering (%d bytes)", len(csvBody), want.Len())
	}
	return nil
}

func sameCell(a, b slicc.SweepCellResult) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// spotCheck re-simulates a few cells on a private in-process engine — an
// independent path from the one that produced them — and compares.
func spotCheck(ctx context.Context, workers int, cells []slicc.SweepCellResult, n int) error {
	eng, err := slicc.NewEngine(slicc.EngineOptions{Workers: workers})
	if err != nil {
		return err
	}
	defer eng.Close()
	step := max(1, len(cells)/n)
	for i := 0; i < len(cells); i += step {
		cfg, err := cellConfig(cells[i])
		if err != nil {
			return err
		}
		r, err := eng.Run(ctx, cfg)
		if err != nil {
			return err
		}
		if err := agree(cells[i], r); err != nil {
			return fmt.Errorf("in-process re-simulation: %w", err)
		}
	}
	return nil
}
