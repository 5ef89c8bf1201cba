package cluster

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// dedupOutcome is one cached execute/fetch result: the executeReply,
// the fetchReply when the op shipped rows, and the envelope code the
// original reply carried. For fetches the raw result is cached too, so
// a retransmit is re-streamed under its *own* request's batch size —
// a replay of identical rows, letting a client resume a partial stream
// by skipping the rows it already delivered.
type dedupOutcome struct {
	exec   executeReply
	fetch  *fetchReply
	result *ColBlock
	code   string
}

// dedupEntry is one in-flight or settled outcome. done is closed when
// the owner settles; waiters then read out/cacheable under the window
// lock.
type dedupEntry struct {
	done      chan struct{}
	out       dedupOutcome
	cacheable bool
	settled   bool
	at        time.Time // settle time, for TTL eviction
}

// dedupWindow gives execute/fetch at-most-once semantics: the first
// request for a key becomes the owner and runs the query; concurrent or
// later duplicates (a client retransmitting after a lost reply) wait
// for — or read — the owner's outcome instead of re-running it.
//
// Only outcomes that represent completed work (the query ran, or the
// engine rejected its SQL deterministically) are cacheable. Refusals —
// overload, expired, supply race, node stopping — settle uncacheable:
// the entry is deleted once waiters are released, so a later retry with
// fresh budget is re-admitted instead of being served a stale refusal.
type dedupWindow struct {
	mu      sync.Mutex
	entries map[string]*dedupEntry
	ttl     time.Duration
}

func newDedupWindow(ttl time.Duration) *dedupWindow {
	return &dedupWindow{entries: make(map[string]*dedupEntry), ttl: ttl}
}

// dedupKey builds the window key. QueryID alone is not unique — the
// distributed subquery layer reuses one query id across its fetch
// subqueries — so the SQL hash disambiguates within a query.
func dedupKey(runID, op string, queryID int64, sql string) string {
	h := fnv.New64a()
	h.Write([]byte(sql))
	return fmt.Sprintf("%s|%s|%d|%x", runID, op, queryID, h.Sum64())
}

// claim resolves a key: the first caller becomes the owner (claim
// returns owner=true) and must call settle exactly once; duplicates
// block until the owner settles (or stop closes) and get the cached
// outcome with hit=true. A duplicate of an uncacheable outcome gets
// hit=false after the entry is cleared and becomes the new owner.
func (d *dedupWindow) claim(key string, stop <-chan struct{}) (out dedupOutcome, hit, owner bool) {
	for {
		d.mu.Lock()
		e, ok := d.entries[key]
		if !ok {
			d.entries[key] = &dedupEntry{done: make(chan struct{})}
			d.mu.Unlock()
			return dedupOutcome{}, false, true
		}
		if e.settled {
			out, cacheable := e.out, e.cacheable
			if !cacheable {
				// Refusal entries are transient; clear and re-own.
				delete(d.entries, key)
				d.mu.Unlock()
				return dedupOutcome{}, false, true
			}
			d.mu.Unlock()
			return out, true, false
		}
		d.mu.Unlock()
		select {
		case <-e.done:
			// Loop: re-read the settled entry (or re-own if it was an
			// uncacheable refusal and got cleared).
		case <-stop:
			return dedupOutcome{exec: executeReply{Err: msgNodeStopping}}, true, false
		}
	}
}

// settle publishes the owner's outcome and releases waiters. A
// cacheable outcome stays in the window until the TTL sweep; an
// uncacheable one (a refusal) is deleted immediately, so released
// waiters loop back, find no entry, and re-own — retrying a refusal
// re-admits the query rather than replaying the stale refusal.
func (d *dedupWindow) settle(key string, out dedupOutcome, cacheable bool) {
	d.mu.Lock()
	e, ok := d.entries[key]
	if !ok || e.settled {
		d.mu.Unlock()
		return
	}
	e.out = out
	e.cacheable = cacheable
	e.settled = true
	e.at = time.Now()
	close(e.done)
	if !cacheable {
		// Keep the settled entry visible only through the waiters'
		// claim loop: delete now; a waiter looping back finds no entry
		// and re-owns, which is exactly the retry-a-refusal semantics
		// we want.
		delete(d.entries, key)
	}
	d.mu.Unlock()
}

// sweep evicts settled entries older than the TTL. Called from the
// node's period loop; unsettled (in-flight) entries are never evicted.
func (d *dedupWindow) sweep(now time.Time) {
	d.mu.Lock()
	for k, e := range d.entries {
		if e.settled && now.Sub(e.at) > d.ttl {
			delete(d.entries, k)
		}
	}
	d.mu.Unlock()
}

// size reports the current entry count (tests and gauges).
func (d *dedupWindow) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}
