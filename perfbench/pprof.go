package main

// A minimal reader for the pprof profile format (gzip-compressed
// protocol buffers, github.com/google/pprof/proto/profile.proto), enough
// to attribute CPU samples to packages without a dependency.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one stack (leaf first, as function names) and its value:
// CPU nanoseconds for a CPU profile.
type profSample struct {
	Stack []string
	Value int64
}

// parseProfile decodes a gzip-compressed (or raw) profile into samples.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		nTypes    int
	)
	err := protoFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1:
			nTypes++
		case 2:
			var s sample
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					for _, u := range appendUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The last sample type is the one pprof reports by default (CPU
	// nanoseconds for a CPU profile).
	vi := nTypes - 1
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("profile: sample without its value")
		}
		ps := profSample{Value: s.values[vi]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					ps.Stack = append(ps.Stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number, wire type and value: v for varints, b for length-delimited
// fields. Fixed-width fields are skipped.
func protoFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field in either encoding: one
// varint, or a packed run of varints.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// pkgOf returns a function's package bucket: the import path with the
// module's "slicc/internal/" prefix dropped, so internal packages read
// as their short names ("cache", "sim") and everything else keeps its
// path ("runtime", "net/http", "slicc").
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return strings.TrimPrefix(fn[:slash+1+dot], "slicc/internal/")
}

// gcFrames mark a sample as garbage-collector work when any appears in
// its stack: background marking, mutator assists and background sweeping.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares buckets samples by the package of their leaf function (self
// time) and returns each package's share of the total, plus the share of
// samples spent in the garbage collector.
func cpuShares(samples []profSample) (shares map[string]float64, gc float64) {
	shares = map[string]float64{}
	var total, gcv float64
	for _, s := range samples {
		v := float64(s.Value)
		total += v
		if len(s.Stack) > 0 {
			shares[pkgOf(s.Stack[0])] += v
		}
		for _, f := range s.Stack {
			if isGCFrame(f) {
				gcv += v
				break
			}
		}
	}
	if total == 0 {
		return shares, 0
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, gcv / total
}

func isGCFrame(f string) bool {
	for _, g := range gcFrames {
		if f == g {
			return true
		}
	}
	return false
}
