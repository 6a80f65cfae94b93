package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.BaseCPI != 0.5 || cfg.DataOverlap != 0.7 || cfg.FetchBubble != 2.6 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.MigrationBaseCycles != 100 || cfg.ContextBytes != 256 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestInstrCyclesHit(t *testing.T) {
	tm := NewTiming(Config{})
	if got := tm.InstrCycles(0, 0); got != 0.5 {
		t.Fatalf("hit cost = %v, want BaseCPI", got)
	}
}

func TestInstrCyclesIMissFullyExposed(t *testing.T) {
	tm := NewTiming(Config{})
	got := tm.InstrCycles(20, 0)
	want := 0.5 + 20*2.6
	if got != want {
		t.Fatalf("imiss cost = %v, want %v", got, want)
	}
}

func TestInstrCyclesDMissMostlyHidden(t *testing.T) {
	tm := NewTiming(Config{})
	got := tm.InstrCycles(0, 100)
	want := 0.5 + 100*0.3
	if got-want > 1e-9 || want-got > 1e-9 {
		t.Fatalf("dmiss cost = %v, want %v", got, want)
	}
}

// The asymmetry the model exists for: an instruction miss of equal latency
// must cost more than a data miss.
func TestIMissCostsMoreThanDMiss(t *testing.T) {
	tm := NewTiming(Config{})
	for lat := 1; lat <= 200; lat *= 2 {
		if tm.InstrCycles(lat, 0) <= tm.InstrCycles(0, lat) {
			t.Fatalf("latency %d: imiss not more expensive than dmiss", lat)
		}
	}
}

func TestMigrationCycles(t *testing.T) {
	tm := NewTiming(Config{})
	// 256B context = 4 blocks of 64B: 2*4 L2 accesses + base + noc.
	got := tm.MigrationCycles(8, 16, 64)
	want := 100 + 2*4*16 + 8
	if got != want {
		t.Fatalf("migration cycles = %d, want %d", got, want)
	}
}

// Property: costs are monotone in both miss latencies.
func TestPropMonotone(t *testing.T) {
	tm := NewTiming(Config{})
	f := func(a, b uint8) bool {
		i1 := tm.InstrCycles(int(a), 0)
		i2 := tm.InstrCycles(int(a)+1, 0)
		d1 := tm.InstrCycles(0, int(b))
		d2 := tm.InstrCycles(0, int(b)+1)
		return i2 > i1 && d2 > d1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for name, cfg := range map[string]Config{
		"negative BaseCPI":     {BaseCPI: -0.5},
		"infinite BaseCPI":     {BaseCPI: math.Inf(1)},
		"NaN BaseCPI":          {BaseCPI: math.NaN()},
		"negative FetchBubble": {FetchBubble: -1},
		"infinite FetchBubble": {FetchBubble: math.Inf(1)},
		"DataOverlap above 1":  {DataOverlap: 1.5},
		"negative DataOverlap": {DataOverlap: -0.1},
		"negative migration":   {MigrationBaseCycles: -1},
		"negative context":     {ContextBytes: -64},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
