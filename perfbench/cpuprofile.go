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

// profSample is one CPU profile sample: its stack of function names,
// innermost first (inlined calls expanded), and the CPU time it stands for.
type profSample struct {
	stack []string
	nanos int64
}

// Frames that make the cumulative entries: everything under the mempool's
// transaction hash, and everything under a transport event loop. Work
// under checkFrame is the benchmark's own proof check, which a user of the
// ledger does not run: it is charged to "bench" even where it calls into
// the repository.
const (
	txHashFrame    = "dledger/internal/mempool.HashTx"
	eventLoopFrame = "dledger/internal/transport.(*eventLoop).run"
	checkFrame     = "main.verifyCommit"
)

// attribution is a profile's CPU split: self time by layer, the
// cumulative txhash time and the event-loop share of all samples.
type attribution struct {
	byLayer   map[string]int64
	txHash    int64
	eventLoop int64
	total     int64
}

// attribute charges each sample to the layer of its innermost frame in a
// repository package (so SHA-256 called by merkle counts as merkle), to
// "bench" under the benchmark's proof check, or to "runtime" when no
// repository frame is on the stack.
func attribute(samples []profSample) attribution {
	a := attribution{byLayer: map[string]int64{}}
	for _, s := range samples {
		a.total += s.nanos
		layer := "runtime"
		found := false
		hashed, looped, checked := false, false, false
		for _, fn := range s.stack {
			if !found {
				if l, ok := layerOf(fn); ok {
					layer, found = l, true
				}
			}
			hashed = hashed || fn == txHashFrame
			looped = looped || fn == eventLoopFrame
			checked = checked || fn == checkFrame
		}
		if checked {
			layer, hashed = "bench", false
		}
		a.byLayer[layer] += s.nanos
		if hashed {
			a.txHash += s.nanos
		}
		if looped {
			a.eventLoop += s.nanos
		}
	}
	return a
}

// layerOf maps a profile function name to its layer. ok is false for
// frames outside the repository (standard library, runtime).
func layerOf(fn string) (layer string, ok bool) {
	pkg := packageOf(fn)
	switch {
	case pkg == "main":
		return "bench", true
	case pkg == "dledger/dlclient":
		return "dlclient", true
	case pkg == "dledger":
		return "other", true
	case strings.HasPrefix(pkg, "dledger/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "dledger/internal/"), "/")
		for _, l := range cpuLayers {
			if l == name {
				return l, true
			}
		}
		return "other", true
	case strings.HasPrefix(pkg, "dledger/"):
		return "other", true
	}
	return "", false
}

// packageOf extracts the import path from a function name such as
// "dledger/internal/transport.(*TCPNode).readLoop.func1".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// parseProfile decodes a gzip-compressed pprof CPU profile, as written by
// runtime/pprof, into samples. Only the fields attribution needs are read:
// samples (location ids, values), locations (their inlined line chains),
// functions (their names) and the string table.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
		strs       []string
		period     int64
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, w, v, b)
				case 2:
					for _, u := range pbUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, w int, v uint64, b []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
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
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		var s profSample
		switch {
		case len(rs.values) >= 2: // [samples/count, cpu/nanoseconds]
			s.nanos = rs.values[1]
		case len(rs.values) == 1:
			s.nanos = rs.values[0] * period
		}
		for _, loc := range rs.locs {
			for _, f := range locFuncs[loc] {
				idx := funcName[f]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, errors.New("profile: function name out of the string table")
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errPB = errors.New("profile: malformed protobuf")

// pbFields walks the top-level fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func pbFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errPB
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errPB
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errPB
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errPB
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errPB
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errPB
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field that may be packed (wire type
// 2) or written one value per key.
func pbUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
