package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU-profile stack, leaf first, with the CPU time its
// samples account for.
type cpuSample struct {
	stack []string
	ns    int64
}

// cpuLayer names a layer and the entry points that put a sample in it.
type cpuLayer struct {
	name  string
	match func(fn string) bool
}

const clusterPkg = "github.com/qamarket/qamarket/internal/cluster."

func inPackage(pkgs ...string) func(string) bool {
	return func(fn string) bool {
		for _, p := range pkgs {
			if strings.HasPrefix(fn, "github.com/qamarket/qamarket/internal/"+p+".") {
				return true
			}
		}
		return false
	}
}

func isFunc(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == n {
				return true
			}
		}
		return false
	}
}

// cpuLayers are the entry points a sample is attributed by. When several
// match one stack the outermost frame wins, so JSON decoding under a
// gossip exchange counts as gossip, not transport.
var cpuLayers = []cpuLayer{
	{"gossip", isFunc(clusterPkg+"(*Node).gossipWith", clusterPkg+"(*Node).handleGossip")},
	{"executor", inPackage("engine", "sqldb")},
	{"market", func(fn string) bool {
		return inPackage("market", "economics")(fn) || strings.HasPrefix(fn, clusterPkg+"(*pricer).")
	}},
	{"transport", isFunc(clusterPkg+"readMsg", clusterPkg+"writeMsg", clusterPkg+"dial")},
	{"gc", isFunc("runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge")},
}

// attribute splits the samples' CPU time by layer and returns each
// layer's share of the total; time under no entry point is "other".
func attribute(samples []cpuSample) map[string]float64 {
	byLayer := make(map[string]int64)
	var total int64
	for _, s := range samples {
		total += s.ns
		byLayer[layerOf(s.stack)] += s.ns
	}
	shares := make(map[string]float64, len(byLayer))
	for name, ns := range byLayer {
		shares[name] = ratio(float64(ns), float64(total))
	}
	return shares
}

// layerOf walks the stack from the root towards the leaf and returns the
// first layer whose entry point appears.
func layerOf(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		for _, l := range cpuLayers {
			if l.match(stack[i]) {
				return l.name
			}
		}
	}
	return "other"
}

// parseCPUProfile decodes the gzipped profile.proto runtime/pprof writes
// into stacks of function names. Inlined frames are expanded, so an
// entry point the compiler inlined still matches.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs       []string
		typeNames  []int64 // sample_type name indices, in value order
		sampleMsgs [][]byte
		locFuncs   = make(map[uint64][]uint64) // location -> function ids, leaf first
		funcNames  = make(map[uint64]int64)    // function -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type {type, unit}
			var typ int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeNames = append(typeNames, typ)
		case 2: // sample
			sampleMsgs = append(sampleMsgs, b)
		case 4: // location {id, ..., line {function_id, line}}
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function {id, name, ...}
			var id uint64
			var name int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	valueIdx := -1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(sampleMsgs))
	for _, m := range sampleMsgs {
		var locs []uint64
		var vals []uint64
		if err := eachField(m, func(n int, v uint64, data []byte) error {
			switch n {
			case 1: // location_id
				return repeated(v, data, func(x uint64) { locs = append(locs, x) })
			case 2: // value
				return repeated(v, data, func(x uint64) { vals = append(vals, x) })
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIdx >= len(vals) {
			continue
		}
		var stack []string
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, cpuSample{stack: stack, ns: int64(vals[valueIdx])})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes. Fixed-width
// fields are skipped: profile.proto uses none the parser needs.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated yields the elements of one repeated integer field, which the
// encoder writes either packed (one length-delimited run) or as a single
// varint per occurrence.
func repeated(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
