package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

var posInf = math.Inf(1)

// finite maps +Inf to the largest float64, which JSON can carry: a
// percentile that lands on a refused query reads as "missed every limit".
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// latencies collects per-query response times. A query that failed, was
// shed or expired is recorded as +Inf, so it misses every limit and
// pushes the percentiles up instead of vanishing from them.
type latencies struct {
	mu  sync.Mutex
	all []float64
}

func (l *latencies) add(ms float64) {
	l.mu.Lock()
	l.all = append(l.all, ms)
	l.mu.Unlock()
}

func (l *latencies) refuse() { l.add(posInf) }

// tailQ is the tail percentile every workload reports as
// latency_p95_ms.
const tailQ = 0.95

// summary returns the median, the tail percentile, the sample count and
// how many samples lie strictly beyond the tail percentile.
func (l *latencies) summary() (p50, tail float64, n, beyond int) {
	s := l.sorted()
	p50, tail = percentile(s, 0.50), percentile(s, tailQ)
	for _, v := range s {
		if v > tail {
			beyond++
		}
	}
	return p50, tail, len(s), beyond
}

func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	s := append([]float64(nil), l.all...)
	l.mu.Unlock()
	sort.Float64s(s)
	return s
}

// spread prints the upper percentiles, for the record.
func (l *latencies) spread() string {
	s := l.sorted()
	return fmt.Sprintf("p90 %.4g p95 %.4g p98 %.4g p99 %.4g max %.4g ms",
		percentile(s, 0.90), percentile(s, 0.95), percentile(s, 0.98), percentile(s, 0.99), percentile(s, 1))
}

// percentile is the nearest-rank q-quantile of sorted samples: the
// smallest value with at least q of the samples at or below it. +Inf
// samples sort last, so refused queries count as the slowest.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// median of unsorted values (the input is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
