package metrics

import (
	"fmt"
	"sync"
)

// Canonical health metric names shared by the cluster client and
// server. Counters end in _total; everything else is a gauge.
const (
	// BreakerOpenTotal counts closed/half-open -> open transitions.
	BreakerOpenTotal = "breaker_open_total"
	// BreakerHalfOpenTotal counts open -> half-open (probe) transitions.
	BreakerHalfOpenTotal = "breaker_half_open_total"
	// BreakerCloseTotal counts half-open -> closed (recovery) transitions.
	BreakerCloseTotal = "breaker_close_total"
	// RetriesTotal counts client resubmission rounds (refusals,
	// unreachable federations, and lost execute races).
	RetriesTotal = "retries_total"
	// BackoffMsTotal accumulates milliseconds the client spent in
	// retry backoff sleeps.
	BackoffMsTotal = "backoff_ms_total"
	// DrainsTotal counts graceful drains started on a node.
	DrainsTotal = "drains_total"
	// DrainTimeoutsTotal counts drains that hit their deadline with
	// work still in flight.
	DrainTimeoutsTotal = "drain_timeouts_total"
	// DrainRejectsTotal counts requests refused with a draining reply.
	DrainRejectsTotal = "drain_rejects_total"
	// CheckpointsTotal counts market-state checkpoints written.
	CheckpointsTotal = "checkpoints_total"
	// CheckpointAgeMs is the time since the node last checkpointed.
	CheckpointAgeMs = "checkpoint_age_ms"
	// GossipRoundsTotal counts membership gossip rounds run.
	GossipRoundsTotal = "gossip_rounds_total"
	// GossipFailuresTotal counts gossip exchanges that failed at the
	// transport (peer unreachable or timed out).
	GossipFailuresTotal = "gossip_failures_total"
	// GossipExchangesTotal counts gossip exchanges this node initiated
	// that completed, want follow-up included.
	GossipExchangesTotal = "gossip_exchanges_total"
	// GossipWantsTotal counts want follow-ups: pushes of full rows a
	// peer could not place from this node's stripped digest.
	GossipWantsTotal = "gossip_want_followups_total"
	// GossipBytesSentTotal and GossipBytesReceivedTotal count the wire
	// bytes of the exchanges this node initiated, envelopes included.
	GossipBytesSentTotal     = "gossip_bytes_sent_total"
	GossipBytesReceivedTotal = "gossip_bytes_received_total"
	// MembershipEvictionsTotal counts members the local failure
	// detector moved suspect -> dead.
	MembershipEvictionsTotal = "membership_evictions_total"
	// MembersLive is the current live-view size (alive + suspect),
	// including the node itself.
	MembersLive = "members_live"
	// OverloadTotal counts work requests a server shed with a typed
	// overload reply because the admission gate or executor queue was
	// full.
	OverloadTotal = "overload_total"
	// ExpiredTotal counts queries a server shed with a typed expired
	// reply because their remaining deadline budget could not cover the
	// backlog, plus queued jobs dropped when their deadline passed
	// before execution.
	ExpiredTotal = "expired_total"
	// DedupHitsTotal counts execute/fetch retries answered from the
	// at-most-once dedup window instead of re-running the query.
	DedupHitsTotal = "dedup_hits_total"
	// FailoversTotal counts client failovers from a failed winning
	// bidder to a runner-up from the same proposal round.
	FailoversTotal = "failovers_total"
	// RetryBudgetExhaustedTotal counts retries the client refused
	// because its token-bucket retry budget ran dry.
	RetryBudgetExhaustedTotal = "retry_budget_exhausted_total"
	// BidCacheHitsTotal counts queries admitted straight to execute from
	// the client's winning-bid cache, skipping the negotiate fan-out.
	BidCacheHitsTotal = "bid_cache_hits_total"
	// BidCacheMissesTotal counts cache-enabled negotiation rounds that
	// found no valid cached ladder (absent, expired, or stale-stamped).
	BidCacheMissesTotal = "bid_cache_misses_total"
	// BidCacheInvalidationsTotal counts cached ladders dropped for any
	// reason: epoch bump, membership change, TTL, typed refusal, supply
	// race, or a fatal error from a cached candidate.
	BidCacheInvalidationsTotal = "bid_cache_invalidations_total"
	// BatchWindowsTotal counts batched call-for-proposals fan-outs (one
	// per sealed coalescing window, however many queries rode it).
	BatchWindowsTotal = "batch_windows_total"
	// BatchCoalescedTotal counts queries that rode another query's
	// window instead of paying their own negotiate fan-out.
	BatchCoalescedTotal = "batch_coalesced_total"
	// ShardSkipsTotal counts per-node CFPs not sent because the member's
	// gossiped relation filter proved it infeasible for the query.
	ShardSkipsTotal = "shard_skips_total"
	// FetchBatchesTotal counts binary batch frames a server streamed to
	// frame-speaking fetch clients.
	FetchBatchesTotal = "fetch_batches_total"
	// FetchBytesTotal accumulates frame bytes (headers included) a
	// server streamed on the binary fetch lane.
	FetchBytesTotal = "fetch_bytes_total"
	// InflightWork is the server's current count of admitted work
	// requests (negotiate/execute/fetch being handled).
	InflightWork = "inflight_work"
	// QueueDepth is the server's current executor-queue depth (jobs
	// admitted but not yet running).
	QueueDepth = "queue_depth"
)

// FrameNegotiatedPrefix keys the per-version frame-negotiation counters:
// FrameNegotiatedCounter(v) registers under "frame_negotiated_v<v>_total"
// so the flat Health registry stays label-free, and exposition layers
// render the family as frame_negotiated_total{version="<v>"}.
const FrameNegotiatedPrefix = "frame_negotiated_v"

// FrameNegotiatedCounter names the counter for fetches negotiated onto
// binary frame version v.
func FrameNegotiatedCounter(v int) string {
	return fmt.Sprintf("%s%d_total", FrameNegotiatedPrefix, v)
}

// FrameNegotiatedVersion parses a FrameNegotiatedCounter name back into
// its version label, reporting ok=false for unrelated names.
func FrameNegotiatedVersion(name string) (string, bool) {
	if len(name) <= len(FrameNegotiatedPrefix)+len("_total") ||
		name[:len(FrameNegotiatedPrefix)] != FrameNegotiatedPrefix ||
		name[len(name)-len("_total"):] != "_total" {
		return "", false
	}
	return name[len(FrameNegotiatedPrefix) : len(name)-len("_total")], true
}

// Health is a concurrency-safe named counter/gauge set for
// failure-domain observability: breaker transitions, retries, drains,
// checkpoint freshness. Zero value is not usable; call NewHealth.
type Health struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
}

// NewHealth builds an empty health registry.
func NewHealth() *Health {
	return &Health{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
	}
}

// Inc adds one to the named counter and returns the new value.
func (h *Health) Inc(name string) int64 { return h.Add(name, 1) }

// Add adds delta to the named counter and returns the new value. A
// name already registered as a gauge panics: the two kinds used to
// merge into one Snapshot map and silently overwrite each other, so a
// collision is a programming error surfaced at the first write, not a
// corrupted metric discovered in a dashboard.
func (h *Health) Add(name string, delta int64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, clash := h.gauges[name]; clash {
		panic(fmt.Sprintf("metrics: %q is already registered as a gauge", name))
	}
	h.counters[name] += delta
	return h.counters[name]
}

// Counter reads the named counter (0 when never incremented).
func (h *Health) Counter(name string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counters[name]
}

// SetGauge records an instantaneous value. A name already registered
// as a counter panics (see Add).
func (h *Health) SetGauge(name string, v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, clash := h.counters[name]; clash {
		panic(fmt.Sprintf("metrics: %q is already registered as a counter", name))
	}
	h.gauges[name] = v
}

// Gauge reads the named gauge (0 when never set).
func (h *Health) Gauge(name string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gauges[name]
}

// Snapshot merges counters and gauges into one map, safe for the
// caller to mutate. Registration panics guarantee the two namespaces
// are disjoint, so the merge cannot drop a metric.
func (h *Health) Snapshot() map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]float64, len(h.counters)+len(h.gauges))
	for k, v := range h.counters {
		out[k] = float64(v)
	}
	for k, v := range h.gauges {
		out[k] = v
	}
	return out
}

// Counters copies the counter namespace, for exposition layers that
// must emit counters and gauges with distinct metric types.
func (h *Health) Counters() map[string]int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]int64, len(h.counters))
	for k, v := range h.counters {
		out[k] = v
	}
	return out
}

// Gauges copies the gauge namespace.
func (h *Health) Gauges() map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]float64, len(h.gauges))
	for k, v := range h.gauges {
		out[k] = v
	}
	return out
}
