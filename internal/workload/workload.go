// Package workload synthesizes the transaction traces the paper drives its
// simulator with. The real system traced Shore-MT running TPC-C and TPC-E
// (plus a Hadoop MapReduce job) under PIN; those traces are not available,
// so each benchmark is modeled as a *segment-structured* instruction stream
// calibrated to the properties Section 2 of the paper measures:
//
//   - Transaction instruction footprints span several 32KB L1-I caches
//     (TPC-C larger than TPC-E; MapReduce fits in one cache).
//   - Execution loops over a multi-segment body (the A-B-C-A pattern of
//     Figure 4), so L1-I misses are capacity misses with long-period reuse.
//   - Threads of the same transaction type share ~98% of their instruction
//     blocks but diverge on optional segments (Figure 3).
//   - Data accesses are dominated by compulsory misses (fresh row data)
//     with a reusable private working set and a small shared hot set with
//     ~45% stores (Section 5.5).
//
// All generation is deterministic per (workload seed, thread id): a thread's
// Source can be re-created any number of times and always replays the same
// stream, which is how one workload is compared across machine configs.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"slicc/internal/trace"
)

// Kind selects a benchmark.
type Kind int

// Benchmarks from Table 1, followed by the synthetic scenario families that
// extend the paper's workload set (see docs/WORKLOADS.md).
const (
	TPCC1     Kind = iota // TPC-C, 1 warehouse
	TPCC10                // TPC-C, 10 warehouses (larger data footprint)
	TPCE                  // TPC-E, 1000 customers
	MapReduce             // Hadoop/Mahout text analytics

	// Phased is a bursty phase-changing scenario: each transaction
	// alternates between large disjoint code phases, churning the cache
	// signatures SLICC learns (extension; scenarios.go).
	Phased
	// Skewed is a multi-tenant scenario with a Zipfian transaction mix:
	// one hot tenant dominates, a long tail supplies stray threads
	// (extension; scenarios.go).
	Skewed
	// Microservice is an RPC-fan-out scenario: many services with small
	// individual footprints that call into each other's stubs and a shared
	// runtime (extension; scenarios.go).
	Microservice

	// Recorded marks a workload replayed from a trace container rather
	// than synthesized; it is the Kind of workloads built by FromTraceFile.
	Recorded Kind = -1
)

var kindNames = [...]string{"TPC-C-1", "TPC-C-10", "TPC-E", "MapReduce", "Phased", "Skewed", "Microservice"}

func (k Kind) String() string {
	if k == Recorded {
		return "Recorded"
	}
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds returns the paper's benchmark kinds in Table 1 / Figure 10 order.
// The experiment harness iterates these, so the paper's figures keep their
// exact shape; AllKinds adds the scenario extensions.
func Kinds() []Kind { return []Kind{TPCC1, TPCC10, TPCE, MapReduce} }

// ScenarioKinds returns the synthetic scenario families beyond the paper's
// benchmark set, in declaration order.
func ScenarioKinds() []Kind { return []Kind{Phased, Skewed, Microservice} }

// AllKinds returns every synthesizable workload kind: Table 1 first, then
// the scenario extensions.
func AllKinds() []Kind { return append(Kinds(), ScenarioKinds()...) }

// kindTokens are the canonical machine-readable kind names used by the
// CLIs, the sweep subsystem and the public slicc package (which keeps its
// Benchmark tokens in lockstep).
var kindTokens = map[string]Kind{
	"tpcc1":        TPCC1,
	"tpcc10":       TPCC10,
	"tpce":         TPCE,
	"mapreduce":    MapReduce,
	"phased":       Phased,
	"skewed":       Skewed,
	"microservice": Microservice,
}

// Token returns the kind's canonical machine-readable name (String returns
// the display name).
func (k Kind) Token() string {
	for tok, v := range kindTokens {
		if v == k {
			return tok
		}
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves a workload kind from its canonical token ("tpcc1",
// "phased", ...) or display name ("TPC-C-1"), case-insensitively.
func ParseKind(s string) (Kind, error) {
	ls := strings.ToLower(s)
	if k, ok := kindTokens[ls]; ok {
		return k, nil
	}
	for _, k := range AllKinds() {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown kind %q (have %s)", s, strings.Join(KindTokens(), ", "))
}

// KindTokens lists the canonical kind tokens in AllKinds order.
func KindTokens() []string {
	names := make([]string, 0, len(kindTokens))
	for _, k := range AllKinds() {
		names = append(names, k.Token())
	}
	return names
}

// Config parameterizes workload synthesis.
type Config struct {
	// Kind is the benchmark.
	Kind Kind
	// Threads is the number of tasks (transactions / map-reduce tasks).
	// The paper simulates 1K tasks; tests use fewer. Defaults per kind.
	Threads int
	// Seed drives all randomness (transaction mix, control-flow
	// divergence, data addresses).
	Seed int64
	// Scale multiplies per-transaction work (loop iterations). 1.0
	// reproduces the default calibration; tests may shrink it.
	Scale float64

	// TracePath, when non-empty, replays the recorded trace container at
	// this path instead of synthesizing anything; Kind, Threads, Seed and
	// Scale are ignored (the container fixes all of them). Build such
	// workloads with FromTraceFile.
	TracePath string
	// TraceDigest is the content digest (trace.FileDigest) of the file at
	// TracePath. The runner fills it in before using a Config as a cache
	// key, so memoization keys on the trace's *contents*: renaming a file
	// does not defeat dedup, and re-recording a file under the same name
	// does not replay stale results. Leave empty when declaring jobs.
	TraceDigest string
}

// WithDefaults returns the configuration with zero fields replaced by their
// defaults. It is idempotent; the runner's workload cache normalizes configs
// with it so that explicit and defaulted spellings of the same workload
// share one synthesis.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.TracePath != "" {
		// A recorded workload is fully determined by the container, so the
		// canonical spelling zeroes every synthetic-only field: differently
		// spelled configs of the same replay share one cache entry.
		return Config{TracePath: c.TracePath, TraceDigest: c.TraceDigest}
	}
	if c.Threads == 0 {
		switch c.Kind {
		case MapReduce:
			c.Threads = 300 // the paper's 300 map/reduce tasks
		case Microservice:
			c.Threads = 256 // many small RPC handlers in flight
		default:
			c.Threads = 128
		}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// Segment is a contiguous run of instruction blocks, the unit SLICC spreads
// across caches. Base is a block address (not byte address).
type Segment struct {
	ID     int
	Base   uint64 // block address of first block
	Blocks int
	Shared bool // part of the cross-type common pool (DB engine / OS code)
}

// optionalSeg is a segment executed with some probability per loop
// iteration; it produces the control-flow divergence of Figure 4's
// segment D.
type optionalSeg struct {
	seg  int
	prob float64
}

// TxnType models one transaction type: its code segments and the program
// shape that visits them.
type TxnType struct {
	Name   string
	Weight float64 // share of the transaction mix

	// Program shape, all values are indices into Workload.Segments.
	// Entry is the type-specific dispatch code executed first; SLICC-Pp
	// relies on it to fingerprint the type.
	Entry    []int
	Preamble []int // begin-transaction work (mostly shared pool)
	LoopBody []int // per-item work; this is the footprint SLICC spreads
	Optional []optionalSeg
	Epilogue []int // commit/log (mostly shared pool)

	// MinItems/MaxItems bound the per-transaction loop count.
	MinItems, MaxItems int

	// BlockRepeat is the probability that a block's instructions are
	// re-executed immediately (models short loops within basic blocks);
	// it calibrates baseline I-MPKI without changing the footprint.
	BlockRepeat float64

	// Data behaviour. Per-region store probabilities live in the
	// workload's dataProfile; the global store fraction lands near the
	// paper's 45% for the OLTP benchmarks.
	DataRate   float64 // fraction of instructions with a data access
	RowFrac    float64 // data accesses streaming fresh row data (compulsory)
	SharedFrac float64 // data accesses to the global hot set
	// the remainder hits the thread-private working set
}

// FootprintBlocks returns the static instruction footprint of the type in
// blocks (entry + preamble + loop + optional + epilogue, deduplicated).
func (t *TxnType) footprintBlocks(w *Workload) int {
	seen := map[int]struct{}{}
	add := func(idx int) {
		seen[idx] = struct{}{}
	}
	for _, s := range t.Entry {
		add(s)
	}
	for _, s := range t.Preamble {
		add(s)
	}
	for _, s := range t.LoopBody {
		add(s)
	}
	for _, o := range t.Optional {
		add(o.seg)
	}
	for _, s := range t.Epilogue {
		add(s)
	}
	total := 0
	for idx := range seen {
		total += w.Segments[idx].Blocks
	}
	return total
}

// Workload is a fully-specified benchmark instance.
type Workload struct {
	Name     string
	Kind     Kind
	Config   Config
	Segments []Segment
	Types    []TxnType

	// orders holds, per segment, the block execution order: the segment's
	// control-flow structure. Real code is not laid out in execution
	// order — basic blocks end in taken branches — so a segment is
	// executed as short sequential runs stitched together by jumps.
	// The order is part of the *code*, identical for every thread, and
	// independent of the workload seed (the binary doesn't change when
	// the transaction mix does).
	orders [][]uint16

	threads []trace.Thread

	// oc memoizes thread op streams that are replayed repeatedly (see
	// sourceFor); lockstep gangs prime it through BatchThreads.
	oc opCache

	// container is the open trace file backing a Recorded workload (nil
	// for synthetic workloads). It is held for the workload's lifetime:
	// every thread's New streams from it.
	container *trace.File
}

// opCache memoizes synthetic threads' op streams once they prove hot. A
// thread's first New() replay runs the generator directly — so single-pass
// consumers (trace capture, a lone simulation) keep the generator's
// constant memory — but the *second* New() of the same thread marks it as
// repeatedly replayed: its stream is recorded once into a delta-encoded
// buffer (trace.OpEncoder, ~3.5 bytes/op) and every later replay decodes
// from memory through the trace.BatchSource bulk path. That is the
// experiment-harness shape (one pool-cached workload feeding dozens of
// simulations), where regenerating identical streams — two rand draws per
// op — dominated the cold simulation loop; the compact encoding keeps a
// whole quick-size workload within the last-level cache, so replays do not
// evict the simulator's own model state. Replays are byte-identical by
// construction: the recording is the generator's own output.
type opCache struct {
	mu sync.Mutex
	// budget is the remaining op count the cache may retain. Quick
	// experiment workloads fit whole; oversized threads simply stay on
	// the generator path. Concurrent recorders may transiently overshoot
	// by one thread's stream each.
	budget int64
	// state is the per-thread ladder: 0 = never replayed, 1 = replayed
	// once (record on next replay), 2 = recording in flight or rejected.
	state []uint8
	enc   []*trace.OpEncoder
}

// opCacheBudget bounds the op streams one workload retains (2^26 ops ≈
// 230MB encoded worst case). It is a var so tests can shrink it.
var opCacheBudget = int64(1) << 26

// sourceFor returns thread id's op stream: the memoized recording when one
// exists, the deterministic generator otherwise (recording it on the way
// through when this is a repeat replay and the budget allows).
func (w *Workload) sourceFor(id, ti int, seed int64) trace.Source {
	oc := &w.oc
	oc.mu.Lock()
	if e := oc.enc[id]; e != nil {
		oc.mu.Unlock()
		return e.Source()
	}
	record := false
	limit := oc.budget
	switch oc.state[id] {
	case 0:
		oc.state[id] = 1
	case 1:
		oc.state[id] = 2
		record = limit > 0
	}
	oc.mu.Unlock()

	gen := newThreadSource(w, id, ti, seed)
	if !record {
		return gen
	}
	var enc trace.OpEncoder
	for {
		op, ok := gen.Next()
		if !ok {
			// Complete recording (exact budget fits count as complete).
			oc.mu.Lock()
			if oc.budget >= int64(enc.Ops()) {
				oc.budget -= int64(enc.Ops())
				oc.enc[id] = &enc
			}
			oc.mu.Unlock()
			return enc.Source()
		}
		if int64(enc.Ops()) >= limit {
			// The stream does not fit in the remaining budget: drop the
			// prefix and leave the thread on the generator path for good.
			return newThreadSource(w, id, ti, seed)
		}
		enc.Append(op)
	}
}

// BatchThreads returns the workload's threads for a lockstep gang
// (sim.RunBatch): the same list as Threads, with every synthetic thread not
// yet replayed marked as replayed once in the op cache's ladder. A gang
// replays each thread once per machine, so the first machine's New()
// records the stream and every other machine decodes the compact recording
// instead of rerunning the generator. Recorded workloads have no op cache;
// their threads stream from the container as usual.
func (w *Workload) BatchThreads() []trace.Thread {
	oc := &w.oc
	oc.mu.Lock()
	for id, s := range oc.state {
		if s == 0 {
			oc.state[id] = 1
		}
	}
	oc.mu.Unlock()
	return w.threads
}

// New synthesizes a workload. Trace-backed configs (TracePath set) have no
// synthesis step; build them with FromTraceFile instead.
func New(cfg Config) *Workload {
	if cfg.TracePath != "" {
		panic("workload: New called with a trace config; use FromTraceFile")
	}
	cfg = cfg.withDefaults()
	var w *Workload
	switch cfg.Kind {
	case TPCC1, TPCC10:
		w = buildTPCC(cfg)
	case TPCE:
		w = buildTPCE(cfg)
	case MapReduce:
		w = buildMapReduce(cfg)
	case Phased:
		w = buildPhased(cfg)
	case Skewed:
		w = buildSkewed(cfg)
	case Microservice:
		w = buildMicroservice(cfg)
	default:
		panic(fmt.Sprintf("workload: unknown kind %v", cfg.Kind))
	}
	w.computeOrders()
	w.assignThreads()
	return w
}

// computeOrders derives each segment's block execution order: sequential
// fall-through runs with geometric length (mean ~1.4 blocks, so a next-line
// prefetcher covers only the paper's modest fraction of fetches), shuffled
// by a per-segment deterministic source.
func (w *Workload) computeOrders() {
	const fallThrough = 0.15 // probability the next block is spatially next
	w.orders = make([][]uint16, len(w.Segments))
	for i, seg := range w.Segments {
		rng := rand.New(rand.NewSource(0xC0DE + int64(seg.ID)*7919))
		// Split [0..Blocks) into sequential runs.
		var runs [][]uint16
		var run []uint16
		for b := 0; b < seg.Blocks; b++ {
			run = append(run, uint16(b))
			if rng.Float64() >= fallThrough {
				runs = append(runs, run)
				run = nil
			}
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
		rng.Shuffle(len(runs), func(a, b int) { runs[a], runs[b] = runs[b], runs[a] })
		order := make([]uint16, 0, seg.Blocks)
		for _, r := range runs {
			order = append(order, r...)
		}
		w.orders[i] = order
	}
}

// Threads returns the workload's thread (transaction) list in arrival order.
func (w *Workload) Threads() []trace.Thread { return w.threads }

// TypeFootprintBytes returns the instruction footprint of type ti in bytes.
func (w *Workload) TypeFootprintBytes(ti int) int {
	return w.Types[ti].footprintBlocks(w) * blockBytes
}

// SharedRanges returns the [lo,hi) block-address ranges of the shared
// (DB-engine/OS) code pool, merged into maximal runs. CSP-style policies
// use these as their system-code classification.
func (w *Workload) SharedRanges() [][2]uint64 {
	var ranges [][2]uint64
	for _, seg := range w.Segments {
		if !seg.Shared {
			continue
		}
		lo, hi := seg.Base, seg.Base+uint64(seg.Blocks)
		if n := len(ranges); n > 0 && ranges[n-1][1] == lo {
			ranges[n-1][1] = hi
			continue
		}
		ranges = append(ranges, [2]uint64{lo, hi})
	}
	return ranges
}

// assignThreads draws the transaction mix and builds thread descriptors.
func (w *Workload) assignThreads() {
	rng := rand.New(rand.NewSource(w.Config.Seed))
	total := 0.0
	for i := range w.Types {
		total += w.Types[i].Weight
	}
	w.threads = make([]trace.Thread, w.Config.Threads)
	for id := 0; id < w.Config.Threads; id++ {
		r := rng.Float64() * total
		ti := 0
		for acc := 0.0; ti < len(w.Types); ti++ {
			acc += w.Types[ti].Weight
			if r < acc {
				break
			}
		}
		if ti == len(w.Types) {
			ti--
		}
		seed := threadSeed(w.Config.Seed, id)
		wi, typ, tid := w, ti, id
		w.threads[id] = trace.Thread{
			ID:       id,
			Type:     ti,
			TypeName: w.Types[ti].Name,
			New: func() trace.Source {
				return wi.sourceFor(tid, typ, seed)
			},
		}
	}
	w.oc.budget = opCacheBudget
	w.oc.state = make([]uint8, len(w.threads))
	w.oc.enc = make([]*trace.OpEncoder, len(w.threads))
}

// threadSeed decorrelates per-thread streams (splitmix64-style).
func threadSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
