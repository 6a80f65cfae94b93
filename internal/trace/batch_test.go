package trace

// Equivalence tests for the BatchSource fast paths: draining a source
// through NextBatch (at assorted batch sizes, and mixed with Next calls)
// must yield exactly the ops, count and error state of a plain Next loop.

import (
	"bytes"
	"math/rand"
	"testing"
)

// batchTestOps builds a mixed op stream with data accesses and writes.
func batchTestOps(n int) []Op {
	rng := rand.New(rand.NewSource(9))
	ops := make([]Op, n)
	pc := uint64(0x40_0000)
	for i := range ops {
		op := Op{PC: pc}
		pc += 4
		if rng.Intn(8) == 0 {
			pc = 0x40_0000 + uint64(rng.Intn(1<<18))
		}
		if rng.Intn(3) == 0 {
			op.HasData = true
			op.DataAddr = 0x5000_0000_0000 + uint64(rng.Intn(1<<24))
			op.IsWrite = rng.Intn(2) == 0
		}
		ops[i] = op
	}
	return ops
}

// drainNext fully drains a source via Next.
func drainNext(s Source) []Op {
	var out []Op
	for {
		op, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, op)
	}
}

// drainBatch fully drains a BatchSource via NextBatch with the given
// buffer size.
func drainBatch(s BatchSource, size int) []Op {
	var out []Op
	buf := make([]Op, size)
	for {
		n := s.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func equalOps(t *testing.T, label string, got, want []Op) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: op %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestSliceSourceNextBatch(t *testing.T) {
	ops := batchTestOps(1000)
	for _, size := range []int{1, 7, 256, 2000} {
		equalOps(t, "slice", drainBatch(NewSliceSource(ops), size), ops)
	}
}

// containerFor writes ops as a one-thread v2 container and reopens it.
func containerFor(t *testing.T, ops []Op) *File {
	t.Helper()
	var m memFile
	if err := WriteWorkload(&m, "batch", []Thread{sliceThread(0, 0, "T", ops)}); err != nil {
		t.Fatal(err)
	}
	c, err := NewFileReader(bytes.NewReader(m.buf), int64(len(m.buf)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFileSourceNextBatchV2(t *testing.T) {
	ops := batchTestOps(2000)
	c := containerFor(t, ops)
	equalOps(t, "v2 next", drainNext(c.Source(0)), ops)
	for _, size := range []int{1, 3, 64, 256, 4096} {
		src := c.Source(0)
		equalOps(t, "v2 batch", drainBatch(src, size), ops)
		if src.Err() != nil {
			t.Fatalf("batch drain errored: %v", src.Err())
		}
	}
	// Mixed consumption: alternate Next and NextBatch.
	src := c.Source(0)
	var out []Op
	buf := make([]Op, 17)
	for {
		if len(out)%2 == 0 {
			op, ok := src.Next()
			if !ok {
				break
			}
			out = append(out, op)
			continue
		}
		n := src.NextBatch(buf)
		if n == 0 {
			break
		}
		out = append(out, buf[:n]...)
	}
	equalOps(t, "v2 mixed", out, ops)
	if src.Err() != nil {
		t.Fatalf("mixed drain errored: %v", src.Err())
	}
}

func TestFileSourceNextBatchV1(t *testing.T) {
	ops := batchTestOps(500)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	c, err := NewFileReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 1 {
		t.Fatalf("version = %d, want 1", c.Version())
	}
	for _, size := range []int{1, 11, 256} {
		src := c.Source(0)
		equalOps(t, "v1 batch", drainBatch(src, size), ops)
		if src.Err() != nil {
			t.Fatalf("v1 batch drain errored: %v", src.Err())
		}
	}
}

// TestFileSourceNextBatchCorrupt checks that a corrupted stream behaves
// identically under Next and NextBatch: same decoded prefix, same error
// state. Every byte of the stream span is flipped in turn.
func TestFileSourceNextBatchCorrupt(t *testing.T) {
	ops := batchTestOps(40)
	var m memFile
	if err := WriteWorkload(&m, "corrupt", []Thread{sliceThread(0, 0, "T", ops)}); err != nil {
		t.Fatal(err)
	}
	c, err := NewFileReader(bytes.NewReader(m.buf), int64(len(m.buf)))
	if err != nil {
		t.Fatal(err)
	}
	meta := c.Meta(0)
	for i := int(meta.offset); i < int(meta.offset+meta.length); i++ {
		corrupt := append([]byte(nil), m.buf...)
		corrupt[i] ^= 0xff
		cc, err := NewFileReader(bytes.NewReader(corrupt), int64(len(corrupt)))
		if err != nil {
			continue
		}
		nextSrc := cc.Source(0)
		nextOps := drainNext(nextSrc)
		batchSrc := cc.Source(0)
		batchOps := drainBatch(batchSrc, 7)
		equalOps(t, "corrupt", batchOps, nextOps)
		if (nextSrc.Err() == nil) != (batchSrc.Err() == nil) {
			t.Fatalf("flip at %d: error state diverges: next=%v batch=%v", i, nextSrc.Err(), batchSrc.Err())
		}
	}
}
