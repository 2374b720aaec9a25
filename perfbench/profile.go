package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// cpuLayers are the ledger's CPU-share rows. exec is split by source
// file; every other layer is an xprs/internal package. Samples whose
// stack holds no frame of these layers count as "other": the Go
// runtime alone (GC workers, the scheduler) and the benchmark itself.
var cpuLayers = []string{
	"sqlmini", "opt", "cost", "core", "vclock", "diskmodel", "storage", "expr", "obs",
	"exec.sched", "exec.admission", "exec.pipe", "exec.hash", "exec.agg", "exec.temp",
	"other",
}

// execFiles maps internal/exec source files to their ledger layer;
// files not listed belong to exec.pipe.
var execFiles = map[string]string{
	"scheduler.go":  "exec.sched",
	"engine.go":     "exec.sched",
	"task.go":       "exec.sched",
	"admission.go":  "exec.admission",
	"hashtable.go":  "exec.hash",
	"colhash.go":    "exec.hash",
	"agg.go":        "exec.agg",
	"temp.go":       "exec.temp",
	"sortkernel.go": "exec.temp",
}

// admissionFuncs are the admission-queue functions of scheduler.go,
// by receiver type or function name.
var admissionFuncs = map[string]bool{
	"(*waitQ)": true, "enqueueWaiter": true, "takeWaiter": true, "oldestWaiter": true,
	"firstEligibleWaiter": true, "bestWaiter": true, "shedWith": true,
	"admits": true, "admit": true, "wakeAdmitQ": true,
}

const internalPrefix = "xprs/internal/"

// layerOf returns the ledger layer of a function, or "" when the
// function is in none. Packages of the module that are not ledger
// layers (plan, btree, workload, the facade) pass through to their
// caller's layer.
func layerOf(fn, file string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg, rest, _ := strings.Cut(fn[len(internalPrefix):], ".")
	if pkg == "exec" {
		base := path.Base(file)
		if base == "scheduler.go" {
			// rest is Func, (*T).Method or either with closure suffixes.
			parts := strings.Split(rest, ".")
			if admissionFuncs[parts[0]] || len(parts) > 1 && admissionFuncs[parts[1]] {
				return "exec.admission"
			}
		}
		if l, ok := execFiles[base]; ok {
			return l
		}
		return "exec.pipe"
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// cpuShares attributes each sample of a runtime/pprof CPU profile to
// the innermost frame of a ledger layer and returns every layer's share
// of the samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		layer := "other"
	stack:
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				f := p.funcs[fid]
				if l := layerOf(p.str(f.name), p.str(f.file)); l != "" {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += n
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = float64(counts[l]) / float64(total)
	}
	return shares, nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]function
	strs    []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID       = 1
	funcName     = 2
	funcFilename = 4
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]function)}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return varints(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return varints(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var f function
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					f.name = int64(v)
				case funcFilename:
					f.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case profString:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value (data nil) or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (data non-nil) or not.
func varints(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		data = data[n:]
	}
	return nil
}
