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

// This file aggregates a runtime/pprof CPU profile by Go package without the
// pprof library: it decodes just the parts of the profile.proto message that
// flat (self) time needs — samples, locations, functions and the string
// table — and charges each sample to the package of its leaf function.

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// packageSelfTime returns, for a gzipped CPU profile, each package's flat
// CPU nanoseconds (the last sample value) keyed by import path, plus the
// total. A sample is charged to the innermost function of its leaf location,
// so inlined calls count toward the package they were written in.
func packageSelfTime(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locLeaf  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string table index
		strs     []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profSample:
			var s sample
			first := true
			err := eachField(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case sampleLocationID:
					return eachVarint(w, v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case sampleValue:
					return eachVarint(w, v, b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					if haveLine {
						return nil // later lines are the callers it was inlined into
					}
					haveLine = true
					return eachField(b, func(f int, w int, v uint64, b []byte) error {
						if f == lineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locLeaf[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[packageOf(name)] += s.value
		total += s.value
	}
	return out, total, nil
}

// packageOf returns the import path of a symbol name as the runtime prints
// it: "memsched/internal/sim.(*System).tick" -> "memsched/internal/sim",
// "runtime.mallocgc" -> "runtime".
func packageOf(sym string) string {
	cut := sym
	if i := strings.IndexAny(cut, "[("); i >= 0 {
		cut = cut[:i]
	}
	slash := strings.LastIndex(cut, "/")
	if dot := strings.Index(cut[slash+1:], "."); dot >= 0 {
		return cut[:slash+1+dot]
	}
	return cut
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields v is
// the value; for length-delimited fields b is the payload. Fixed-width
// fields are skipped (profile.proto has none that matter here).
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint calls fn for every value of a repeated varint field, which the
// encoder writes either one value per field or packed into one payload.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
