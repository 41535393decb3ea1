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

// modules are the program's layers, named after the packages under
// vrio/internal. A CPU sample is charged to the innermost frame that belongs
// to one of them, so time spent in the allocator or in memclr on behalf of a
// module is charged to that module. The benchmark's own frames (request
// generation, verification, span bookkeeping) are charged to "bench", and a
// sample with neither kind of frame to "runtime".
var modules = []string{
	"blockdev", "bufpool", "cluster", "core", "cost", "cpu", "ethernet",
	"experiments", "fault", "guestos", "hypervisor", "interpose", "iohyp",
	"link", "netwire", "nic", "params", "rack", "sim", "stats", "trace",
	"transport", "virtio", "workload",
}

const (
	moduleBench   = "bench"
	moduleRuntime = "runtime"
)

// profileModules are all the modules a CPU sample can be charged to.
func profileModules() []string {
	return append(append([]string{}, modules...), moduleBench, moduleRuntime)
}

// benchPackages are the symbol prefixes of the benchmark's own package: a
// command's functions are named main.*, and under go test the package keeps
// its import path.
var benchPackages = []string{"main.", "vrio/perfbench."}

// moduleOf attributes a call stack, innermost frame first, to a module.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "vrio/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		for _, p := range benchPackages {
			if strings.HasPrefix(fn, p) {
				return moduleBench
			}
		}
	}
	return moduleRuntime
}

// cpuByModule decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and sums its CPU seconds per module.
func cpuByModule(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	stack := make([]string, 0, 64)
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				stack = append(stack, p.funcName(fid))
			}
		}
		if p.valueIndex < len(s.values) {
			out[moduleOf(stack)] += float64(s.values[p.valueIndex]) / 1e9
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	strs       []string
	funcs      map[uint64]int64    // function id -> name string index
	locLines   map[uint64][]uint64 // location id -> function ids, innermost first
	samples    []sample
	valueIndex int // index of the cpu-nanoseconds value in each sample
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	if i := p.funcs[id]; i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcs: map[uint64]int64{}, locLines: map[uint64][]uint64{}}
	var types [][2]int64 // sample_type (type, unit) string indexes
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p.valueIndex = len(types) - 1
	for i, t := range types {
		if int(t[1]) < len(p.strs) && p.strs[t[1]] == "nanoseconds" {
			p.valueIndex = i
		}
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which may arrive
// one per field (v) or packed into one length-delimited field (packed).
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
