package main

import (
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/driver"
)

// driverStats accumulates the timings of every Prepare and Execute that
// passes through timedDriver, across all nodes of a federation.
type driverStats struct {
	spans *spanLog

	mu        sync.Mutex
	prepareMs []float64
	executeMs []float64
	execNs    int64
	rows      int64
}

// timedDriver times the storage seam a node calls for every query: it is
// passed to cluster.NodeConfig.Driver in traced runs. Server-side calls
// carry no query identity, so their spans have query -1.
type timedDriver struct {
	driver.Driver
	stats *driverStats
}

func (d timedDriver) Prepare(sql string) (driver.Statement, error) {
	sp := d.stats.spans.start(-1, 0, "driver.prepare")
	t0 := time.Now()
	st, err := d.Driver.Prepare(sql)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	sp.end()
	d.stats.mu.Lock()
	d.stats.prepareMs = append(d.stats.prepareMs, ms)
	d.stats.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return timedStmt{Statement: st, stats: d.stats}, nil
}

type timedStmt struct {
	driver.Statement
	stats *driverStats
}

func (s timedStmt) Execute() (*driver.Block, error) {
	sp := s.stats.spans.start(-1, 0, "driver.execute")
	t0 := time.Now()
	b, err := s.Statement.Execute()
	d := time.Since(t0)
	sp.end()
	s.stats.mu.Lock()
	s.stats.executeMs = append(s.stats.executeMs, float64(d)/float64(time.Millisecond))
	s.stats.execNs += int64(d)
	if b != nil {
		s.stats.rows += int64(b.Rows)
	}
	s.stats.mu.Unlock()
	return b, err
}

// reset drops what set-up and warm-up recorded.
func (s *driverStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prepareMs, s.executeMs, s.execNs, s.rows = nil, nil, 0, 0
}

func (s *driverStats) report(rep *report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep.set("driver.prepare_ms_p50", median(s.prepareMs))
	rep.set("driver.execute_ms_p50", median(s.executeMs))
	rep.set("driver.execute_ns_per_row", ratio(float64(s.execNs), float64(s.rows)))
	rep.note("driver: %d prepares, %d executes, %d rows", len(s.prepareMs), len(s.executeMs), s.rows)
}

// mechStats accumulates the time the simulator spends inside the
// allocation mechanism. The simulator is single-threaded, so no lock.
type mechStats struct {
	assigns                  int64
	assignNs, startNs, endNs int64
	spans                    *spanLog
	run                      int64 // current simulation run, the spans' query
	runSpan                  int64 // its span, the parent of period spans
}

// timedMech wraps an alloc.Mechanism to time every Assign.
type timedMech struct {
	alloc.Mechanism
	stats *mechStats
}

func (m timedMech) Assign(q alloc.Query, v alloc.View) alloc.Decision {
	t0 := time.Now()
	d := m.Mechanism.Assign(q, v)
	m.stats.assignNs += int64(time.Since(t0))
	m.stats.assigns++
	return d
}

// timedPeriodic also times the period hooks. The simulator type-asserts
// alloc.Periodic, so a mechanism without hooks must stay a timedMech.
type timedPeriodic struct {
	timedMech
	p alloc.Periodic
}

func (m timedPeriodic) OnPeriodStart(v alloc.View) {
	sp := m.stats.spans.start(m.stats.run, m.stats.runSpan, "alloc.period_start")
	t0 := time.Now()
	m.p.OnPeriodStart(v)
	m.stats.startNs += int64(time.Since(t0))
	sp.end()
}

func (m timedPeriodic) OnPeriodEnd(v alloc.View) {
	sp := m.stats.spans.start(m.stats.run, m.stats.runSpan, "alloc.period_end")
	t0 := time.Now()
	m.p.OnPeriodEnd(v)
	m.stats.endNs += int64(time.Since(t0))
	sp.end()
}

// wrapMech returns mech timed into stats.
func wrapMech(mech alloc.Mechanism, stats *mechStats) alloc.Mechanism {
	tm := timedMech{Mechanism: mech, stats: stats}
	if p, ok := mech.(alloc.Periodic); ok {
		return timedPeriodic{timedMech: tm, p: p}
	}
	return tm
}
