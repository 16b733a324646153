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

// The traced run's per-layer CPU split. runtime/pprof writes a gzipped
// protobuf profile; the few fields needed here are decoded by hand so
// the benchmark needs nothing outside the standard library.
//
// Each sample's CPU goes to the innermost frame that belongs to one of
// the layers below, so runtime.mapaccess called under kernel.Procs
// counts as kernel and channel parking under a sim.Task counts as sim.
// Packages of the module that are not layers (errno, inet, tty) are
// transparent: their samples go to the nearest layer that called them.
// A stack with no layer frame at all is the Go runtime's own work:
// garbage collection, or everything else.

// layers lists every layer the split reports, as package names under
// procmig/internal, plus the two runtime buckets.
var layers = []string{
	"sim", "vm", "kernel", "core", "nfs", "vfs", "aout", "netsim",
	"ha", "controller", "apps", "load", "obs", "cluster",
	"runtime.gc", "runtime.other",
}

const modulePrefix = "procmig/internal/"

// gcFrames mark a stack with no layer frame as garbage-collection work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.scanobject",
	"runtime.sweepone", "runtime.gcAssistAlloc",
}

// layerOf maps a function name to its layer, or "" if it is not in one.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	pkg := fn[len(modulePrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// classify attributes one stack, innermost frame first.
func classify(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.other"
}

// cpuByLayer decodes a CPU profile and returns sampled CPU nanoseconds
// per layer and in total. The layer values sum to the total exactly.
func cpuByLayer(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, 0, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, 0, errors.New("profile: short sample")
		}
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				stack = append(stack, p.str(p.funcNames[fid]))
			}
		}
		v := s.values[vi]
		out[classify(stack)] += v
		total += v
	}
	return out, total, nil
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes [][2]int64          // (type, unit) string indexes
	samples     []sample            // location ids (leaf first) and values
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of the profile.proto messages read here.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case fProfileSampleType:
			var st [2]int64
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fValueTypeType:
					st[0] = int64(v)
				case fValueTypeUnit:
					st[1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case fProfileSample:
			var s sample
			err := eachField(sub, func(n, w int, v uint64, packed []byte) error {
				switch n {
				case fSampleLocation:
					return appendUvarints(w, v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendUvarints(w, v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, _ int, v uint64, line []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(line, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// eachField walks one protobuf message. Varint fields arrive as v;
// length-delimited fields as sub. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
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
			sub = b[n : n+int(l)]
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
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints handles a repeated varint field, packed or not.
func appendUvarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
