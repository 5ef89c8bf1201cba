package cluster

import (
	"errors"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
)

// negotiator coalesces same-class call-for-proposals into batched
// negotiate RPCs: the first query of a class to need a CFP opens a
// window and leads it; queries of the class arriving within BatchWindow
// ride along; the sealed window fans out ONE RPC per probed node (the
// negotiate request's additive batch field) and every rider gets its
// own ranked proposal ladder back. A window of one omits the batch
// field entirely and is byte-identical to an unbatched negotiate.
type negotiator struct {
	c       *Client
	mu      sync.Mutex
	windows map[string]*batchWindow
}

// batchItem is one query's seat in a window; the window writes the
// query's proposals (or error) before closing done.
type batchItem struct {
	queryID  int64
	sql      string
	tc       *traceCtx
	deadline time.Time

	pr      proposals
	elapsed time.Duration
	err     error
}

// batchWindow is one open coalescing window for a class. items is
// guarded by the negotiator's mu until the window leaves the map; after
// that only the leader touches it.
type batchWindow struct {
	items []*batchItem
	full  chan struct{} // closed when BatchLimit seals the window early
	done  chan struct{} // closed when every item's result is in place
}

func newNegotiator(c *Client) *negotiator {
	return &negotiator{c: c, windows: make(map[string]*batchWindow)}
}

// negotiate gets one query its proposal round through the class's
// window: opening and leading one if none is accepting, riding
// otherwise. Blocks until the round completes (at most BatchWindow plus
// the fan-out itself).
func (g *negotiator) negotiate(queryID int64, sql, class string, tc *traceCtx, deadline time.Time) (proposals, time.Duration, error) {
	it := &batchItem{queryID: queryID, sql: sql, tc: tc, deadline: deadline}
	g.mu.Lock()
	if w := g.windows[class]; w != nil {
		// Ride the open window.
		w.items = append(w.items, it)
		if len(w.items) >= g.c.cfg.BatchLimit {
			// Full: seal now and stop admitting; the leader fans out.
			delete(g.windows, class)
			close(w.full)
		}
		g.mu.Unlock()
		g.c.health.Inc(metrics.BatchCoalescedTotal)
		<-w.done
		return it.pr, it.elapsed, it.err
	}
	w := &batchWindow{items: []*batchItem{it}, full: make(chan struct{}), done: make(chan struct{})}
	g.windows[class] = w
	g.mu.Unlock()
	// Lead: hold the window open for late same-class arrivals, then seal.
	timer := time.NewTimer(g.c.cfg.BatchWindow)
	select {
	case <-timer.C:
	case <-w.full:
	}
	timer.Stop()
	g.mu.Lock()
	if g.windows[class] == w {
		delete(g.windows, class)
	}
	items := w.items
	g.mu.Unlock()
	g.fanout(items)
	close(w.done)
	return it.pr, it.elapsed, it.err
}

// fanout runs one sealed window's proposal round: one batched CFP per
// probed node, per-query classification, per-query ranking.
func (g *negotiator) fanout(items []*batchItem) {
	c := g.c
	start := time.Now()
	c.health.Inc(metrics.BatchWindowsTotal)
	// Same class ⇒ same relations: probe once for the whole window.
	members := c.probeSet(items[0].sql)
	if len(members) == 0 {
		for _, it := range items {
			it.err = errors.New("cluster: membership view is empty")
		}
		return
	}
	// grid[qi][mi] is query qi's outcome at member mi.
	grid := make([][]negOutcome, len(items))
	for qi := range grid {
		grid[qi] = make([]negOutcome, len(members))
	}
	var wg sync.WaitGroup
	for mi, ns := range members {
		if !ns.breaker.allow() {
			for qi := range grid {
				grid[qi][mi] = negOutcome{err: errBreakerOpen}
			}
			continue
		}
		wg.Add(1)
		go func(mi int, ns *nodeState) {
			defer wg.Done()
			g.askNode(items, ns, grid, mi)
		}(mi, ns)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for qi, it := range items {
		it.elapsed = elapsed
		pr, reachable := rankOffers(members, grid[qi])
		if !reachable {
			it.err = aggregateNodeErrors(members, outcomeErrors(grid[qi]))
			continue
		}
		it.pr = pr
	}
}

// askNode sends one node its share of the window as one batched CFP.
func (g *negotiator) askNode(items []*batchItem, ns *nodeState, grid [][]negOutcome, mi int) {
	c := g.c
	lead := items[0]
	req := &request{
		Op: "negotiate", SQL: lead.sql, Mechanism: c.cfg.Mechanism, Trace: lead.tc,
		DeadlineMs: remainingMs(lead.deadline),
	}
	for _, it := range items[1:] {
		req.Batch = append(req.Batch, batchQuery{
			QueryID: it.queryID, SQL: it.sql, DeadlineMs: remainingMs(it.deadline),
		})
	}
	var rep reply
	if err := c.rpcOn(ns, req, &rep, c.cfg.Timeout); err != nil {
		ns.breaker.failure()
		for qi := range grid {
			grid[qi][mi] = negOutcome{err: err}
		}
		return
	}
	lead0 := c.classifyNegotiate(ns, rep.Negotiate, rep.Code, rep.Err)
	grid[0][mi] = lead0
	if len(items) == 1 {
		return
	}
	switch rep.Code {
	case CodeDraining, CodeOverload:
		// The node refused the whole CFP at the envelope — it is going
		// away (classify already tripped its breaker and pruned it), or
		// its admission gate is full — and answered no batch array.
		// Every rider gets the same typed refusal from this node.
		for qi := 1; qi < len(grid); qi++ {
			grid[qi][mi] = lead0
		}
		return
	}
	for j := range items[1:] {
		qi := j + 1
		if j >= len(rep.Batch) {
			grid[qi][mi] = negOutcome{err: errors.New("cluster: short batch reply")}
			continue
		}
		bp := rep.Batch[j]
		grid[qi][mi] = c.classifyNegotiate(ns, bp.Negotiate, bp.Code, bp.Err)
	}
}
