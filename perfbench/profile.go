package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped profile.proto
// message. The benchmark needs only the stacks and their CPU time, so it
// decodes the few fields it reads with a minimal protobuf wire reader
// instead of depending on an external profile package.

// stackSample is one profile sample: its call stack, leaf first, as
// fully qualified function names, and the CPU time it carries.
type stackSample struct {
	Stack []string
	Nanos int64
}

// parseCPUProfile decodes a (gzipped) CPU profile into stack samples.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		sampleRaw [][]byte
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf (innermost inline) first
		types     []int64                 // sample_type entries' type string indexes
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			sampleRaw = append(sampleRaw, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, w int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); take the
	// nanoseconds column, falling back to the last one.
	col := len(types) - 1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	name := func(fid uint64) string {
		if i, ok := funcName[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]stackSample, 0, len(sampleRaw))
	for _, raw := range sampleRaw {
		var locs []uint64
		var vals []int64
		err := eachField(raw, func(n, w int, v uint64, b []byte) error {
			switch {
			case n == 1 && w == 0:
				locs = append(locs, v)
			case n == 1 && w == 2:
				return eachVarint(b, func(v uint64) { locs = append(locs, v) })
			case n == 2 && w == 0:
				vals = append(vals, int64(v))
			case n == 2 && w == 2:
				return eachVarint(b, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if col >= len(vals) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(vals), col)
		}
		s := stackSample{Nanos: vals[col]}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.Stack = append(s.Stack, name(f))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
// Fixed-width fields are skipped.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
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
				return errors.New("profile: truncated fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint decodes a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// shareBuckets are the layers CPU time is folded into, in report order.
// Each names the repository packages it covers (a package and its
// subpackages). "runtime" takes samples with no repository frame on the
// stack whose leaf is in the Go runtime (GC workers, the scheduler);
// "other" takes the rest (repository packages outside these layers with
// no layer below them on the stack, the benchmark's own client code, and
// standard-library work such as net/http with no repository caller).
var shareBuckets = []struct {
	Name string
	Pkgs []string
}{
	{"nn", []string{"repro/internal/nn"}},
	{"rl", []string{"repro/internal/rl"}},
	{"stats", []string{"repro/internal/stats"}},
	{"fault", []string{"repro/internal/fault"}},
	{"ciphers", []string{"repro/internal/ciphers"}},
	{"evaluate", []string{"repro/internal/evaluate"}},
	{"abstraction", []string{"repro/internal/abstraction"}},
	{"server", []string{"repro/internal/server"}},
	{"checkpoint", []string{"repro/internal/checkpoint"}},
	{"runtime", nil},
	{"other", nil},
}

// funcPackage returns the import path of a fully qualified Go function
// name ("repro/internal/rl/ppo.(*Agent).Update" → "repro/internal/rl/ppo").
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOf maps a package to its layer bucket, or "" when the package is
// not one of the named layers.
func bucketOf(pkg string) string {
	for _, b := range shareBuckets {
		for _, p := range b.Pkgs {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return b.Name
			}
		}
	}
	return ""
}

// foldByPackage attributes each sample to the innermost frame on its
// stack that belongs to a layer bucket, so standard-library and runtime
// work done on a layer's behalf (gob encoding under checkpoint, mallocgc
// under nn) is charged to that layer. It returns each bucket's share of
// the total CPU time, with every bucket of shareBuckets present.
func foldByPackage(samples []stackSample) map[string]float64 {
	ns := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.Nanos
		ns[sampleBucket(s.Stack)] += s.Nanos
	}
	out := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		out[b.Name] = 0
		if total > 0 {
			out[b.Name] = float64(ns[b.Name]) / float64(total)
		}
	}
	return out
}

func sampleBucket(stack []string) string {
	for _, fn := range stack {
		if b := bucketOf(funcPackage(fn)); b != "" {
			return b
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(funcPackage(fn), "repro") {
			return "other"
		}
	}
	if len(stack) > 0 && funcPackage(stack[0]) == "runtime" {
		return "runtime"
	}
	return "other"
}
