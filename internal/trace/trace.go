// Package trace defines the execution-trace model the simulator consumes
// and the binary formats that persist it. The paper extracts annotated x86
// traces with PIN and replays them; here a trace is a per-thread stream of
// Op records produced lazily by a Source — synthetic generators in
// internal/workload, or recorded streams replayed from trace files.
//
// Two on-disk formats exist, specified byte-by-byte in docs/TRACES.md:
// the v1 single-thread format (WriteTrace/ReadTrace, decoded fully into
// memory) and the v2 whole-workload container (WriteWorkload/OpenWorkload,
// one file holding every thread with per-thread metadata), whose
// FileSource streams ops with constant memory so containers larger than
// RAM replay fine. OpenWorkload reads both versions.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op is one dynamic instruction: an instruction fetch at PC, optionally
// paired with one data access.
type Op struct {
	// PC is the instruction byte address.
	PC uint64
	// DataAddr is the byte address of the data access, meaningful only
	// when HasData is set.
	DataAddr uint64
	// HasData marks ops that perform a data access.
	HasData bool
	// IsWrite marks the data access as a store.
	IsWrite bool
}

// Source produces a thread's ops in order. Next returns ok=false when the
// thread has completed; the Op value is then meaningless.
type Source interface {
	Next() (op Op, ok bool)
}

// BatchSource is an optional Source fast path: NextBatch fills dst from the
// front with the stream's next ops and returns how many it produced (0 when
// the stream has completed, like Next's ok=false). The batch is drawn from
// the same stream position Next reads, so the two may be mixed freely; a
// full drain via NextBatch yields exactly the ops a Next loop would. The
// simulator's hot loop uses it to amortize the per-op interface call and
// decoder state round-trip over a few hundred ops at a time; SliceSource
// and FileSource implement it.
type BatchSource interface {
	Source
	NextBatch(dst []Op) int
}

// SliceSource replays a pre-recorded op slice.
type SliceSource struct {
	ops []Op
	pos int
}

// NewSliceSource wraps ops in a Source.
func NewSliceSource(ops []Op) *SliceSource { return &SliceSource{ops: ops} }

// Next implements Source.
func (s *SliceSource) Next() (Op, bool) {
	if s.pos >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.pos]
	s.pos++
	return op, true
}

// NextBatch implements BatchSource: one bulk copy from the backing slice.
func (s *SliceSource) NextBatch(dst []Op) int {
	n := copy(dst, s.ops[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of ops.
func (s *SliceSource) Len() int { return len(s.ops) }

// Record drains src (up to max ops; max<=0 means unbounded) into a slice.
func Record(src Source, max int) []Op {
	var ops []Op
	for max <= 0 || len(ops) < max {
		op, ok := src.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

// Thread pairs a thread's identity with its op stream. Transactions map 1:1
// to worker threads in the modeled OLTP system, so a Thread is one
// transaction instance.
type Thread struct {
	// ID is a unique numerical thread id.
	ID int
	// Type is the transaction type index within the workload; SLICC-SW
	// receives it, plain SLICC must not look at it.
	Type int
	// TypeName is the human-readable transaction type.
	TypeName string
	// New constructs the op stream. Calling New multiple times yields
	// identical, independent streams (generators are deterministic), which
	// lets one workload definition be replayed under many machine
	// configurations.
	New func() Source
}

// --- binary trace serialization (v1, single thread) --------------------------

// v1 format: magic, version, op count, then one varint-encoded record per
// op (flags bit0 = HasData, bit1 = IsWrite, absolute addresses). The v2
// multi-thread container in container.go shares the magic; docs/TRACES.md
// specifies both layouts.
var traceMagic = [4]byte{'S', 'L', 'T', 'R'}

// traceVersion identifies the v1 single-thread format.
const traceVersion = 1

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// WriteTrace encodes ops to w in the v1 single-thread format. For whole
// workloads use WriteWorkload, which writes the streamable v2 container.
func WriteTrace(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(ops)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	for _, op := range ops {
		var flags byte
		if op.HasData {
			flags |= 1
		}
		if op.IsWrite {
			flags |= 2
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		n = binary.PutUvarint(buf[:], op.PC)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		if op.HasData {
			n = binary.PutUvarint(buf[:], op.DataAddr)
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTrace decodes a trace written by WriteTrace, fully into memory. To
// stream a trace (or read a v2 container) use OpenWorkload, which accepts
// v1 files too.
func ReadTrace(r io.Reader) ([]Op, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, ErrBadTrace
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, ver)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 32
	if count > maxReasonable {
		return nil, fmt.Errorf("%w: absurd op count %d", ErrBadTrace, count)
	}
	// Never trust the declared count for allocation: a forged header must
	// not make us reserve gigabytes. Start small; append grows as records
	// actually decode, and truncated streams fail fast below.
	capHint := count
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	ops := make([]Op, 0, capHint)
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		var op Op
		op.HasData = flags&1 != 0
		op.IsWrite = flags&2 != 0
		if op.PC, err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("trace: op %d pc: %w", i, err)
		}
		if op.HasData {
			if op.DataAddr, err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("trace: op %d data: %w", i, err)
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}
