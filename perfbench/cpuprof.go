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

// profiledPackages are the simulator and monitor packages whose CPU
// share the traced run reports, plus "gc".
var profiledPackages = []string{"des", "gpusim", "cudart", "mpisim", "ipm", "ipmcuda", "cmdqueue", "workloads", "gc"}

// gcFrames mark a sample as garbage-collector work wherever they sit on
// the stack.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.GC"}

// cpuShares decodes a runtime/pprof CPU profile and returns each
// package's share of the samples. A sample belongs to gc when a
// collector frame is on its stack; otherwise to the innermost
// ipmgo/internal package on it, so runtime and standard-library work
// counts toward the package that called it.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		counts[p.classify(s.locs)] += n
	}
	out := map[string]float64{}
	for k, v := range counts {
		if total > 0 {
			out[k] = float64(v) / float64(total)
		}
	}
	return out, nil
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples []pprofSample
	locFns  map[uint64][]uint64 // location id -> function ids, innermost first
	fnName  map[uint64]int64    // function id -> string table index
	strs    []string
}

func (p *pprofProfile) classify(locs []uint64) string {
	pkg := ""
	for _, l := range locs {
		for _, f := range p.locFns[l] {
			idx := p.fnName[f]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			name := p.strs[idx]
			for _, g := range gcFrames {
				if name == g {
					return "gc"
				}
			}
			if pkg == "" && strings.HasPrefix(name, "ipmgo/internal/") {
				rest := strings.TrimPrefix(name, "ipmgo/internal/")
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					rest = rest[:i]
				}
				pkg = rest
			}
		}
	}
	if pkg == "" {
		return "other"
	}
	return pkg
}

// decodeProfile reads the fields of profile.proto the shares need:
// samples (location ids, values), locations (line function ids),
// functions (name) and the string table.
func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s pprofSample
			err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, d)
				case 2:
					for _, u := range appendVarints(nil, wire, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile protobuf")

// eachField walks one protobuf message: varint fields arrive as v,
// length-delimited ones as data.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
	}
	return nil
}
