package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"
)

// profiler holds the CPU profile a traced run takes over its
// measurement window.
type profiler struct{ buf *bytes.Buffer }

func startProfile(enabled bool) (*profiler, error) {
	if !enabled {
		return &profiler{}, nil
	}
	p := &profiler{buf: new(bytes.Buffer)}
	if err := pprof.StartCPUProfile(p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// finish stops the profile and reports each layer's share of the
// sampled CPU time.
func (p *profiler) finish(rep *report) error {
	if p.buf == nil {
		return nil
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	var total int64
	for _, s := range samples {
		total += s.ns
	}
	shares := attribute(samples)
	top := ""
	for _, l := range cpuLayers {
		rep.set("cpu."+l.name+"_share", shares[l.name])
		if l.name != "gc" && (top == "" || shares[l.name] > shares[top]) {
			top = l.name
		}
	}
	rep.note("largest non-runtime cpu share: %s", top)
	rep.note("cpu profile: %.2f s sampled; other (no layer entry point) %.3f", float64(total)/1e9, shares["other"])
	return nil
}

// finishSpans prints each span name's count, mean and self time, and
// writes the spans out.
func finishSpans(rep *report, log *spanLog, path string) error {
	all := log.all()
	st := selfTimes(all)
	for _, name := range sortedKeys(st) {
		s := st[name]
		rep.note("span %-22s n %7d  mean %9.3f ms  self %9.3f ms/span", name, s.Count,
			float64(s.TotalNs)/float64(s.Count)/float64(time.Millisecond),
			float64(s.SelfNs)/float64(s.Count)/float64(time.Millisecond))
	}
	if err := log.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("%d spans written to %s", len(all), path)
	return nil
}
