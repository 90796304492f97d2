package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// cpuShares attributes a runtime/pprof CPU profile to packages by the
// innermost (leaf) frame of every sample and returns each package's
// share of the sampled CPU time. Module packages are named by their
// last path element ("imc"), the Go runtime (GC included) is
// "runtime", and everything else is "other".
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc uint64
		val int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{}
		funcName = map[uint64]int64{}
		strs     []string
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := pbPacked(v, b)
					if err == nil && len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
					return err
				case 2:
					xs, err := pbPacked(v, b)
					for _, x := range xs {
						vals = append(vals, int64(x))
					}
					return err
				}
				return nil
			})
			if len(vals) > 0 {
				s.val = vals[len(vals)-1]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if fn != 0 {
						return nil
					}
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
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
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[packageOf(name)] += float64(s.val)
		total += float64(s.val)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// packageOf maps a pprof function name to its attribution bucket.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "twolm/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// pbFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value or the
// length-delimited payload.
func pbFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbPacked returns a repeated varint field's values, packed or not.
func pbPacked(v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(payload) > 0 {
		x, n := pbVarint(payload)
		if n == 0 {
			return nil, fmt.Errorf("profile: bad packed varint")
		}
		out = append(out, x)
		payload = payload[n:]
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
