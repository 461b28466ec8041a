package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The traced run takes a CPU profile of its own process with runtime/pprof
// and charges every sample to one module. The standard library writes the
// profile but has no public reader for it, so this file decodes the few
// fields of the gzipped profile.proto encoding that attribution needs:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (count, cpu ns)
//	Location: 1 id, 4 line (innermost inlined call first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string index)

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload. Fixed-width fields do not occur in the messages read here.
type pbField struct {
	num   int
	val   uint64
	bytes []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, fmt.Errorf("hostprof: bad varint")
}

func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		tag, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := pbField{num: int(tag >> 3)}
		switch tag & 7 {
		case 0:
			if f.val, b, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 2:
			n, rest, err := pbVarint(b)
			if err != nil || n > uint64(len(rest)) {
				return nil, fmt.Errorf("hostprof: bad length")
			}
			f.bytes, b = rest[:n], rest[n:]
		case 1, 5:
			width := 8
			if tag&7 == 5 {
				width = 4
			}
			if len(b) < width {
				return nil, fmt.Errorf("hostprof: short fixed field")
			}
			b = b[width:]
		default:
			return nil, fmt.Errorf("hostprof: wire type %d", tag&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field given either way protobuf allows:
// packed into one payload or one varint per occurrence.
func pbUints(fields []pbField, num int) []uint64 {
	var out []uint64
	for _, f := range fields {
		if f.num != num {
			continue
		}
		if f.bytes == nil {
			out = append(out, f.val)
			continue
		}
		for b := f.bytes; len(b) > 0; {
			v, rest, err := pbVarint(b)
			if err != nil {
				break
			}
			out, b = append(out, v), rest
		}
	}
	return out
}

// moduleOf names the module a stack is charged to, given its function names
// from the leaf outwards: the innermost dedupstore/internal/<module> frame
// (so runtime memmove, mallocgc and GC assists go to the module that called
// them), else runtime-gc for the collector's own goroutines, else "".
func moduleOf(stack []string) string {
	const prefix = "dedupstore/internal/"
	for _, fn := range stack {
		if strings.HasPrefix(fn, prefix) {
			mod := fn[len(prefix):]
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			return mod
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime-gc"
		}
	}
	return ""
}

// profileShares decodes a CPU profile and returns each module's share of
// the sampled CPU time.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	var samples [][]pbField
	for _, f := range top {
		if f.num == 6 {
			strs = append(strs, string(f.bytes))
		}
		if f.num != 2 && f.num != 4 && f.num != 5 {
			continue
		}
		sub, err := pbFields(f.bytes)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 2:
			samples = append(samples, sub)
		case 4:
			var id uint64
			var fns []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					line, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
			}
			funcName[id] = name
		}
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		values := pbUints(s, 2)
		if len(values) == 0 {
			continue
		}
		v := float64(values[len(values)-1]) // cpu nanoseconds
		var stack []string
		for _, loc := range pbUints(s, 1) {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		total += v
		shares[moduleOf(stack)] += v
	}
	if total == 0 {
		return nil, fmt.Errorf("hostprof: profile holds no samples")
	}
	for mod := range shares {
		shares[mod] /= total
	}
	return shares, nil
}
