// Package cluster is the "real implementation" of the paper's Section
// 5.2: a federation of server nodes, each wrapping an embedded sqldb
// instance and a private QA-NT market agent, talking to clients over
// TCP. Clients negotiate each query with every node (call-for-proposals,
// exactly like the paper's implementation, which "waited for a reply
// from all nodes before deciding"), then send it to the best offer.
//
// Execution-time estimation follows the paper's two-stage scheme: the
// node first plans the query (EXPLAIN) and then overrides the plan-cost
// estimate with past execution times of queries with the same plan
// signature.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"github.com/qamarket/qamarket/internal/membership"
	"github.com/qamarket/qamarket/internal/trace"
)

// Mechanism selects the allocation protocol a client runs.
type Mechanism string

// Supported allocation mechanisms for the real cluster.
const (
	MechGreedy Mechanism = "greedy"
	MechQANT   Mechanism = "qa-nt"
)

// request is one RPC from client to server.
type request struct {
	// ID tags the request for multiplexed connections: the server echoes
	// it on the reply so many RPCs can be in flight per connection and
	// the client can demux. Zero (omitted) keeps the legacy one-at-a-time
	// framing, where replies match requests by order.
	ID        uint64    `json:"id,omitempty"`
	Op        string    `json:"op"` // "negotiate", "execute", "stats"
	SQL       string    `json:"sql,omitempty"`
	QueryID   int64     `json:"query_id,omitempty"`
	Mechanism Mechanism `json:"mechanism,omitempty"`
	// Rows carries member rows in the compact row codec (appendRows):
	// a "gossip" op's digest, or the full rows a want asked for when
	// Push is set.
	Rows []byte `json:"rows,omitempty"`
	// Push marks a gossip want follow-up: the receiver merges Rows and
	// answers nothing.
	Push bool `json:"push,omitempty"`
	// Trace carries the client's trace context when the query is being
	// traced. Additive and versioned: old servers ignore
	// the unknown field (the query still runs, untraced on that node),
	// and old clients omit it, so mixed fleets interoperate.
	Trace *traceCtx `json:"trace,omitempty"`
	// DeadlineMs is the query's remaining time budget in milliseconds
	// when the request left the client. It is relative, not a wall-clock
	// instant, so federations need no clock sync; the cost is that time
	// on the wire is not charged. Zero means "no deadline". Additive
	// like Trace: old servers ignore it (the query just isn't
	// shed server-side), old clients omit it, so mixed fleets
	// interoperate.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// RunID names the client run for at-most-once dedup: the server
	// caches execute/fetch outcomes keyed by (RunID, op, QueryID, SQL
	// hash) so a retransmit after a lost reply returns the original
	// outcome instead of re-running the query. Empty disables dedup
	// (old clients), and old servers ignore the field.
	RunID string `json:"run_id,omitempty"`
	// Batch carries the additional queries of a batched
	// call-for-proposals on a "negotiate" op: the request's own
	// SQL/QueryID/DeadlineMs fields describe the first query exactly as
	// an unbatched negotiate would, and Batch holds the rest of the
	// coalesced window. A single-query window omits the field entirely,
	// making the request byte-identical to an unbatched negotiate.
	Batch []batchQuery `json:"batch,omitempty"`
	// FetchBatch asks the server to bound streamed fetch batches to this
	// many rows. Servers clamp it to their own FetchBatchRows config;
	// zero accepts the server default.
	FetchBatch int `json:"fetch_batch,omitempty"`
}

// batchQuery is one additional query of a batched call-for-proposals.
type batchQuery struct {
	QueryID int64  `json:"query_id,omitempty"`
	SQL     string `json:"sql"`
	// DeadlineMs is the query's own remaining budget (the batch's
	// queries may carry different deadlines).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// batchProposal answers one batchQuery: the proposal, or the typed
// refusal code the envelope would have carried for an unbatched
// negotiate of that query.
type batchProposal struct {
	QueryID   int64           `json:"query_id,omitempty"`
	Negotiate *negotiateReply `json:"negotiate,omitempty"`
	Err       string          `json:"error,omitempty"`
	Code      string          `json:"code,omitempty"`
}

// traceV is the newest trace-context version this build speaks.
const traceV = 1

// traceCtx links a server's spans into the client's query trace: the
// trace ID names the traced query, Span is the client-side span that
// server spans hang under in the assembled tree.
type traceCtx struct {
	V    int    `json:"v"`
	ID   int64  `json:"id"`
	Span string `json:"span,omitempty"`
}

// spansReply answers the "spans" op with the node's retained spans for
// one trace (request.QueryID; zero returns everything in the ring).
// qactl -trace fans this out to assemble the cross-node span tree.
type spansReply struct {
	Origin string       `json:"origin"`
	Spans  []trace.Span `json:"spans"`
}

// Member rows travel in one compact binary codec, carried as a []byte
// field (one base64 string in the JSON envelope): a uvarint row count,
// then per row the ID (uvarint length and bytes), the incarnation,
// heartbeat and epoch as uvarints, a state byte and a flags byte. A full
// row (flag rowFull) goes on with its address, catalog digest, catalog
// filter and driver, each a uvarint length and bytes; a stripped row
// ends after the flags.
const rowFull byte = 1

// minRowBytes is the smallest encoded row: a one-byte ID with its
// length, three one-byte uvarints, the state and the flags.
const minRowBytes = 7

// errBadRows reports a malformed row payload.
var errBadRows = errors.New("cluster: malformed member rows")

// appendRows encodes rows onto dst.
func appendRows(dst []byte, rows []membership.Row) []byte {
	size := binary.MaxVarintLen64
	for _, r := range rows {
		size += 4*binary.MaxVarintLen64 + 2 + len(r.ID)
		if !r.Stripped {
			size += 4*binary.MaxVarintLen64 + len(r.Addr) + len(r.CatalogDigest) + len(r.CatalogFilter) + len(r.Driver)
		}
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = appendRowString(dst, r.ID)
		dst = binary.AppendUvarint(dst, r.Incarnation)
		dst = binary.AppendUvarint(dst, r.Heartbeat)
		dst = binary.AppendUvarint(dst, r.Epoch)
		dst = append(dst, byte(r.State))
		if r.Stripped {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, rowFull)
		dst = appendRowString(dst, r.Addr)
		dst = appendRowString(dst, r.CatalogDigest)
		dst = appendRowString(dst, r.CatalogFilter)
		dst = appendRowString(dst, r.Driver)
	}
	return dst
}

func appendRowString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// fullRows wraps a table snapshot as full rows.
func fullRows(ms []membership.Member) []membership.Row {
	rows := make([]membership.Row, len(ms))
	for i, m := range ms {
		rows[i] = membership.Row{Member: m}
	}
	return rows
}

// rowReader decodes one row payload; the first error sticks. The
// payload is also copied into one string up front, so every decoded
// string is a substring of it instead of an allocation of its own.
type rowReader struct {
	b   []byte
	s   string // string(b)
	off int
	err error
}

func (rr *rowReader) fail(what string) {
	if rr.err == nil {
		rr.err = fmt.Errorf("%w: %s", errBadRows, what)
	}
}

func (rr *rowReader) uvarint(what string) uint64 {
	if rr.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rr.b[rr.off:])
	if n <= 0 {
		rr.fail("bad " + what)
		return 0
	}
	rr.off += n
	return v
}

func (rr *rowReader) byte(what string) byte {
	if rr.err != nil {
		return 0
	}
	if rr.off == len(rr.b) {
		rr.fail("truncated " + what)
		return 0
	}
	rr.off++
	return rr.b[rr.off-1]
}

func (rr *rowReader) string(what string) string {
	n := rr.uvarint(what)
	if rr.err != nil {
		return ""
	}
	if n > uint64(len(rr.b)-rr.off) {
		rr.fail("truncated " + what)
		return ""
	}
	s := rr.s[rr.off : rr.off+int(n)]
	rr.off += int(n)
	return s
}

// decodeRows inverts appendRows. Malformed input — truncation, trailing
// bytes, an empty ID, unknown flags — returns an error wrapping
// errBadRows and no rows. An unknown state byte decodes as dead, like
// membership.ParseState, so a newer peer's state at least takes the
// member out of the live view.
func decodeRows(b []byte) ([]membership.Row, error) {
	rr := rowReader{b: b, s: string(b)}
	n := rr.uvarint("row count")
	if rr.err == nil && n > uint64((len(b)-rr.off)/minRowBytes) {
		rr.fail(fmt.Sprintf("%d rows in %d bytes", n, len(b)-rr.off))
	}
	if rr.err != nil {
		return nil, rr.err
	}
	rows := make([]membership.Row, n)
	for i := range rows {
		r := &rows[i]
		r.ID = rr.string("id")
		if rr.err == nil && r.ID == "" {
			rr.fail("empty id")
		}
		r.Incarnation = rr.uvarint("incarnation")
		r.Heartbeat = rr.uvarint("heartbeat")
		r.Epoch = rr.uvarint("epoch")
		r.State = membership.State(rr.byte("state"))
		if r.State > membership.StateLeft {
			r.State = membership.StateDead
		}
		switch rr.byte("flags") {
		case 0:
			r.Stripped = true
		case rowFull:
			r.Addr = rr.string("addr")
			r.CatalogDigest = rr.string("catalog digest")
			r.CatalogFilter = rr.string("catalog filter")
			r.Driver = rr.string("driver")
		default:
			rr.fail("unknown flags")
		}
		if rr.err != nil {
			return nil, rr.err
		}
	}
	if rr.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadRows, len(b)-rr.off)
	}
	return rows, nil
}

// negotiateReply answers a call-for-proposals.
type negotiateReply struct {
	Feasible   bool    `json:"feasible"`        // node holds the data
	Offer      bool    `json:"offer"`           // node offers to evaluate (QA-NT supply)
	EstimateMs float64 `json:"estimate_ms"`     // predicted execution time
	QueueMs    float64 `json:"queue_ms"`        // predicted wait before execution
	Signature  string  `json:"signature"`       // plan signature (query class)
	FromCache  bool    `json:"from_history"`    // estimate came from past executions
	Err        string  `json:"error,omitempty"` // parse/plan failure
}

// executeReply answers an execution request.
type executeReply struct {
	Accepted bool    `json:"accepted"` // false when QA-NT supply ran out meanwhile
	Rows     int     `json:"rows"`
	ExecMs   float64 `json:"exec_ms"`
	WaitMs   float64 `json:"wait_ms"`
	Err      string  `json:"error,omitempty"`
}

// fetchReply answers a fetch request: like execute, but the result
// rows travel back to the client. An accepted result streams as binary
// frames (see frame.go) and the client synthesizes this envelope from
// the header; only refusals, errors and supply races ride it as JSON.
type fetchReply struct {
	Accepted bool     `json:"accepted"`
	Columns  []string `json:"columns"`
	ExecMs   float64  `json:"exec_ms"`
	Err      string   `json:"error,omitempty"`
}

// NodeStats reports a node's market state for observability.
type NodeStats struct {
	Executed int                `json:"executed"`
	Offers   int                `json:"offers"`
	Rejects  int                `json:"rejects"`
	Prices   map[string]float64 `json:"prices"`
	// Health carries the node's failure-domain counters and gauges
	// (drains, drain rejects, checkpoints, checkpoint age — see the
	// metrics package constants).
	Health map[string]float64 `json:"health,omitempty"`
	// Market is the node's per-period market telemetry snapshot —
	// per-class prices/supply and lifetime trading counters, epoch
	// stamped. Additive: nodes that predate it omit the field and old
	// clients ignore it. The autoscaler's control signal rides here
	// (the stats op stays answerable while draining, so a departing
	// member keeps reporting until it is gone).
	Market *MarketTelemetry `json:"market,omitempty"`
}

// Typed reply codes. Codes classify envelope-level errors so clients
// can react mechanically (the breaker trips on a draining node) instead
// of parsing error strings.
const (
	// CodeDraining marks a node that is gracefully shutting down: it
	// finishes in-flight work but refuses new requests. Clients must
	// open the node's circuit immediately rather than burning timeouts.
	CodeDraining = "draining"
	// CodeOverload marks a work request shed at admission: the node's
	// inflight gate or executor queue is full. A market refusal, not
	// unreachability — the node answered promptly — so clients must NOT
	// trip the breaker; they resubmit elsewhere or next period.
	CodeOverload = "overload"
	// CodeExpired marks a query shed because its remaining deadline
	// budget cannot cover the node's backlog estimate (or the deadline
	// passed while the job sat queued). Also a market refusal: the node
	// is healthy, the query just can't make it here in time.
	CodeExpired = "expired"
	// CodeTooLarge marks a message refused for exceeding the wire size
	// limit: an oversized request line, or a JSON reply too large to
	// send. The answering node is healthy and said so in a well-formed
	// reply, so clients must NOT trip the breaker — but a retry of the
	// same message cannot succeed either, so the error is terminal, not
	// a resubmit.
	CodeTooLarge = "too_large"
)

// msgNodeStopping is reported inside an execute/fetch reply when a hard
// shutdown interrupts a queued query. The query was not run; clients
// may safely resubmit it elsewhere.
const msgNodeStopping = "node shutting down"

// msgOverloaded and msgExpired are the human-readable halves of the
// typed overload/expired refusals.
const (
	msgOverloaded = "node overloaded"
	msgExpired    = "deadline cannot be met"
)

// reply is the union envelope sent back by the server.
type reply struct {
	// ID echoes the request's ID (zero for legacy ordered framing).
	ID        uint64          `json:"id,omitempty"`
	Negotiate *negotiateReply `json:"negotiate,omitempty"`
	// Batch answers the request's Batch queries positionally. It is
	// absent when the whole batched CFP was refused at the envelope
	// (draining, overload); every batched query then shares that
	// refusal.
	Batch   []batchProposal `json:"batch,omitempty"`
	Execute *executeReply   `json:"execute,omitempty"`
	Fetch   *fetchReply     `json:"fetch,omitempty"`
	Stats   *NodeStats      `json:"stats,omitempty"`
	// Rows carries member rows in the row codec: a "gossip" reply's
	// delta, or a "members" reply's full table.
	Rows []byte `json:"rows,omitempty"`
	// Want names the gossip digest's stripped rows the node could not
	// place; the initiator pushes them in full.
	Want  []string    `json:"want,omitempty"`
	Spans *spansReply `json:"spans,omitempty"`
	Err   string      `json:"error,omitempty"`
	Code  string      `json:"code,omitempty"`
	// NodeID stamps every reply with the answering node's stable
	// identity, so clients learn seed addresses' IDs passively from
	// their first exchange (old nodes omit it and stay addressed by
	// seed address).
	NodeID string `json:"node_id,omitempty"`

	// stream, when set by the fetch handler, tells serveConn to answer
	// with a binary frame stream instead of marshalling this envelope.
	// Unexported — never rides the JSON wire.
	stream *frameStream
}

// writeMsg sends one newline-delimited JSON message. The delimiter is
// written separately: append(b, '\n') would copy the whole marshalled
// message whenever the buffer is exactly full, and the bufio.Writer
// coalesces the two writes anyway.
//
// Messages over maxLineBytes are refused before anything is written —
// the peer would reject the line anyway, and failing pre-write keeps
// the connection clean so the sender can answer (or receive) a typed
// too_large refusal instead of losing the stream mid-line.
func writeMsg(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encoding message: %w", err)
	}
	if len(b)+1 > maxLineBytes {
		return fmt.Errorf("%w: %d-byte message", ErrTooLarge, len(b)+1)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}
	return w.Flush()
}

// maxLineBytes bounds one newline-delimited message. Without a cap a
// misbehaving client could stream an endless line and grow server
// memory without ever triggering a parse error.
const maxLineBytes = 1 << 20

// ErrTooLarge reports a message over the wire size limit, in either
// direction: an incoming line past maxLineBytes, or an outgoing message
// refused by writeMsg's pre-write check. It classifies as terminal for
// the offending message but says nothing bad about the peer, so the
// circuit breaker must not trip on it.
var ErrTooLarge = errors.New("cluster: message exceeds wire size limit")

// errLineTooLong reports an incoming message exceeding maxLineBytes.
// The connection is unrecoverable afterwards (the stream position is
// mid-line), so after answering a typed too_large refusal the server
// drops it.
var errLineTooLong = fmt.Errorf("%w: line over %d bytes", ErrTooLarge, maxLineBytes)

// readMsg receives one newline-delimited JSON message, refusing lines
// over maxLineBytes.
func readMsg(r *bufio.Reader, v any) error {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return err
		}
		if len(line)+len(frag) > maxLineBytes {
			return errLineTooLong
		}
		line = append(line, frag...)
		if err == nil {
			break
		}
	}
	return json.Unmarshal(line, v)
}

// dial connects with a timeout.
func dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}
