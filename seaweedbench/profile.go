package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
)

// cpuShares decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and returns each package's share of CPU time, charging every sample to
// the innermost repro/internal/<pkg> frame of its stack ("other" when the
// stack has none: the runtime's own work, such as garbage collection).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	funcPkg := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx < uint64(len(p.strings)) {
			funcPkg[id] = internalPkg(p.strings[nameIdx])
		}
	}
	locPkg := make(map[uint64]string, len(p.locFuncs))
	for id, fns := range p.locFuncs {
		locPkg[id] = "other"
		for _, fn := range fns { // innermost inlined frame first
			if pkg := funcPkg[fn]; pkg != "other" && pkg != "" {
				locPkg[id] = pkg
				break
			}
		}
	}
	byPkg := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		pkg := "other"
		for _, loc := range s.locs { // leaf first
			if lp := locPkg[loc]; lp != "other" {
				pkg = lp
				break
			}
		}
		byPkg[pkg] += v
		total += v
	}
	return percentOf(byPkg, total), nil
}

func percentOf(m map[string]float64, total float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if total > 0 {
			out[k] = 100 * v / total
		}
	}
	return out
}

// memSnapshot is the allocation profile keyed by stack.
type memSnapshot map[[32]uintptr]runtime.MemProfileRecord

func takeMemSnapshot() memSnapshot {
	// The profile is published at the end of a GC cycle; two cycles make
	// every allocation so far visible.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+256)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return nil
	}
	snap := make(memSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// allocShares returns each package's share of the objects allocated
// between two snapshots, charging each record to the first (innermost)
// repro/internal/<pkg> frame of its stack. Sampled counts are scaled up
// the way pprof does, since the profiler samples by bytes.
func allocShares(before, after memSnapshot, rate int) map[string]float64 {
	byPkg := make(map[string]float64)
	var total float64
	for key, r := range after {
		objs := r.AllocObjects
		bytes := r.AllocBytes
		if b, ok := before[key]; ok {
			objs -= b.AllocObjects
			bytes -= b.AllocBytes
		}
		if objs <= 0 {
			continue
		}
		est := float64(objs)
		if rate > 1 {
			avg := float64(bytes) / float64(objs)
			est /= 1 - math.Exp(-avg/float64(rate))
		}
		pkg := "other"
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if p := internalPkg(f.Function); p != "other" {
				pkg = p
				break
			}
			if !more {
				break
			}
		}
		byPkg[pkg] += est
		total += est
	}
	return percentOf(byPkg, total)
}

// profile is the subset of profile.proto the CPU shares need.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]uint64   // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint (or fixed-width) value
// or a length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

// pbFields decodes the fields of one protobuf message.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated varint field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]uint64)}
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case fProfileSample:
			var s profSample
			var vals []uint64
			err := pbFields(f.data, func(g pbField) error {
				var err error
				switch g.num {
				case fSampleLocation:
					s.locs, err = pbUints(g, s.locs)
				case fSampleValue:
					vals, err = pbUints(g, vals)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case fLocationID:
					id = g.value
				case fLocationLine:
					return pbFields(g.data, func(h pbField) error {
						if h.num == fLineFunction {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case fFunctionID:
					id = g.value
				case fFunctionName:
					name = g.value
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
