package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/metrics"
)

// outcomeKind is the one typed terminal outcome every query ends in.
type outcomeKind int

const (
	completed outcomeKind = iota
	shed                  // refused with typed overload, or the client's retry budget ran out
	expired               // deadline ran out
	unknown               // execute outcome unknown after retransmits
	failed                // any other error
	numKinds
)

var kindNames = [numKinds]string{"completed", "shed", "expired", "unknown", "failed"}

func classify(err error) outcomeKind {
	switch {
	case err == nil:
		return completed
	case errors.Is(err, cluster.ErrExpired):
		return expired
	case errors.Is(err, cluster.ErrOverloaded), errors.Is(err, cluster.ErrRetryBudget):
		return shed
	case errors.Is(err, cluster.ErrOutcomeUnknown):
		return unknown
	}
	return failed
}

// loadLog records every query's outcome. Warm-up queries count toward
// the outcome and execution checks; only measured queries enter the
// latency and per-query figures.
type loadLog struct {
	lat latencies

	mu       sync.Mutex
	outcomes map[int64]int // outcomes seen per query id
	all      [numKinds]int64
	measured [numKinds]int64
	retries  int64
	// Per measured, completed query.
	assignMs, execMs, otherMs []float64
	rows, rowsAll             int64
	firstErr                  error
	// lastDone is when the last measured query completed.
	lastDone time.Time
}

func newLoadLog() *loadLog { return &loadLog{outcomes: make(map[int64]int)} }

// record files one query's outcome; latMs is its response time at the
// caller.
func (l *loadLog) record(id int64, measured bool, out cluster.Outcome, latMs float64) {
	k := classify(out.Err)
	if measured {
		if k == completed {
			l.lat.add(latMs)
		} else {
			l.lat.refuse()
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outcomes[id]++
	l.all[k]++
	l.retries += int64(out.Retries)
	l.rowsAll += int64(out.Rows)
	if k != completed && l.firstErr == nil {
		l.firstErr = fmt.Errorf("query %d: %w", id, out.Err)
	}
	if !measured {
		return
	}
	l.measured[k]++
	if k == completed {
		l.lastDone = time.Now()
		l.assignMs = append(l.assignMs, out.AssignMs)
		l.execMs = append(l.execMs, out.ExecMs)
		l.otherMs = append(l.otherMs, out.TotalMs-out.AssignMs-out.ExecMs)
		l.rows += int64(out.Rows)
	}
}

func sum(ks [numKinds]int64) int64 {
	var n int64
	for _, k := range ks {
		n += k
	}
	return n
}

// checkOutcomes verifies that each of the launched queries ended in
// exactly one outcome.
func (l *loadLog) checkOutcomes(rep *report, launched int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep.check(sum(l.all) == launched, "%d queries launched, %d outcomes", launched, sum(l.all))
	dup := 0
	for _, n := range l.outcomes {
		if n != 1 {
			dup++
		}
	}
	rep.check(dup == 0 && int64(len(l.outcomes)) == launched, "%d of %d queries did not end in exactly one outcome", dup+int(launched)-len(l.outcomes), launched)
	if l.firstErr != nil {
		rep.note("first query error: %v", l.firstErr)
	}
}

// span is the measured stretch: from when the first measured query was
// due to when the last one completed.
func (l *loadLog) span(measureStart time.Time) time.Duration {
	return l.lastDone.Sub(measureStart)
}

// reportEndToEnd sets the latency, throughput and CPU figures of a
// federation run whose measured queries were due from measureStart on.
func (l *loadLog) reportEndToEnd(rep *report, measureStart time.Time, cpu time.Duration) {
	p50, tail, n, beyond := l.lat.summary()
	l.mu.Lock()
	defer l.mu.Unlock()
	done := l.measured[completed]
	attempted := sum(l.measured)
	window := l.span(measureStart)
	rep.attempted, rep.failed = attempted, attempted-done
	rep.set("latency_p50_ms", p50)
	rep.set("latency_p95_ms", tail)
	rep.set("throughput_qps", ratio(float64(done), window.Seconds()))
	rep.set("cpu_ms_per_query", ratio(float64(cpu)/float64(time.Millisecond), float64(done)))
	rep.note("latency over %d measured queries (%d beyond p95); %s", n, beyond, l.lat.spread())
	rep.note("rows_per_s %.6g 1/s", ratio(float64(l.rows), window.Seconds()))
	rep.note("failed_share %.6g", ratio(float64(attempted-done), float64(attempted)))
	var parts []string
	for k, name := range kindNames {
		parts = append(parts, fmt.Sprintf("%s %d", name, l.measured[k]))
	}
	rep.note("measured outcomes: %v; warm-up included: %v", parts, l.all)
}

// reportClient sets the client-layer figures, per query over every query
// the client ran (warm-up included, as the client's counters are).
func (l *loadLog) reportClient(rep *report, c *cluster.Client, measureStart time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	queries := float64(sum(l.all))
	rep.set("client.negotiate_ms_p50", median(l.assignMs))
	rep.set("client.exec_ms_p50", median(l.execMs))
	rep.set("client.other_ms_p50", median(l.otherMs))
	rep.set("client.retries_per_query", ratio(float64(l.retries), queries))
	health := c.Health()
	rep.set("client.backoff_ms_per_query", ratio(health[metrics.BackoffMsTotal], queries))
	counts := c.RPCCounts()
	for _, op := range []string{"negotiate", "execute", "members", "fetch"} {
		rep.set("client."+op+"_rpcs_per_query", ratio(float64(counts[op]), queries))
	}
	rep.set("client.rpc_negotiate_ms_p50", c.OpLatencies()["negotiate"].P50Ms)
	hits, misses := health[metrics.BidCacheHitsTotal], health[metrics.BidCacheMissesTotal]
	rep.set("client.bid_cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("client.bid_cache_invalidations_per_query", ratio(health[metrics.BidCacheInvalidationsTotal], queries))
	in, out := c.WireBytes()
	rep.set("client.wire_bytes_per_query", ratio(float64(in+out), queries))
	rep.set("client.wire_bytes_per_row", ratio(float64(in+out), float64(l.rowsAll)))
	rep.set("client.rows_per_s", ratio(float64(l.rows), l.span(measureStart).Seconds()))
	rep.note("client rpc counts %v", counts)
}
