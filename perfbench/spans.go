package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/qamarket/qamarket/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one query share Query; Parent is the ID of the span
// that caused this one (0 for a root). Times are nanoseconds since the
// log's base.
type span struct {
	Query  int64  `json:"query"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how untraced runs stay unwrapped.
type spanLog struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	log *spanLog
	s   span
}

func (l *spanLog) start(query, parent int64, name string) openSpan {
	if l == nil {
		return openSpan{}
	}
	return openSpan{log: l, s: span{
		Query: query, ID: l.next.Add(1), Parent: parent, Name: name,
		Start: int64(time.Since(l.base)),
	}}
}

func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.log == nil {
		return
	}
	o.s.End = int64(time.Since(o.log.base))
	o.log.mu.Lock()
	o.log.spans = append(o.log.spans, o.s)
	o.log.mu.Unlock()
}

// adoptClientSpans imports the client's own lifecycle spans (run,
// negotiate, execute, fetch) recorded by a trace.Recorder. A client root
// span is parented under the benchmark span the query ran in; roots maps
// query IDs to those spans.
func (l *spanLog) adoptClientSpans(spans []trace.Span, roots map[int64]int64) {
	ids := make(map[string]int64, len(spans))
	for _, s := range spans {
		ids[s.ID] = l.next.Add(1)
	}
	base := l.base.UnixNano()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range spans {
		parent, ok := ids[s.Parent]
		if !ok {
			parent = roots[s.TraceID]
		}
		start := s.StartNs - base
		l.spans = append(l.spans, span{
			Query: s.TraceID, ID: ids[s.ID], Parent: parent, Name: s.Name,
			Start: start, End: start + int64(s.DurMs*float64(time.Millisecond)),
		})
	}
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one span name's aggregate: how many spans, their total
// duration, and their self time — duration minus the part of the span's
// interval its direct children cover.
type selfTime struct {
	Count   int
	TotalNs int64
	SelfNs  int64
}

func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range spans {
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalNs += dur
		st.SelfNs += dur - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end).
func covered(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
