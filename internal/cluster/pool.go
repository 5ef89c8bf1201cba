package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport selects how a Client carries its RPCs.
type Transport string

const (
	// TransportPooled (the default) keeps a small pool of persistent
	// multiplexed connections per node: requests carry client-assigned
	// ids, many RPCs ride one connection concurrently, and a reader
	// goroutine demuxes replies to the waiting callers. Connections dial
	// lazily and are evicted on any protocol error or RPC timeout — a
	// stream that lost a reply is suspect, and re-dialing keeps the
	// breaker's dials-per-window accounting identical to fresh dialing.
	TransportPooled Transport = "pooled"
	// TransportFresh dials a new connection per RPC: the v0 behavior,
	// kept for rollout comparison (qaload -transport fresh) and as the
	// baseline in the transport benchmarks.
	TransportFresh Transport = "fresh"
)

// Transport-layer errors. All of them count as node failures for the
// circuit breaker, exactly like a dial error on the fresh path.
var (
	// errRPCTimeout reports no reply within the caller's budget. The
	// connection is evicted: its stream may still deliver the reply
	// arbitrarily late, and a hung TCP stream (blackhole, partition)
	// must cost one dial per probe, not zero.
	errRPCTimeout = errors.New("cluster: rpc timeout awaiting reply")
	// errPoolClosed reports an RPC attempted after Client.Close.
	errPoolClosed = errors.New("cluster: client transport closed")
)

// wireCounter tallies bytes crossing a set of connections: a client's
// wire cost in qaload reports, and a node's gossip byte counters.
type wireCounter struct {
	in  atomic.Int64
	out atomic.Int64
}

// countedConn wraps a net.Conn to tally its traffic on a wireCounter.
type countedConn struct {
	net.Conn
	wc *wireCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wc.in.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wc.out.Add(int64(n))
	return n, err
}

// rpcResult is one demuxed message: a JSON reply, a binary frame, or
// the connection's terminal error.
type rpcResult struct {
	rep   *reply
	frame frameMsg
	err   error
}

// pendingCall is one in-flight RPC awaiting demuxed results. A plain
// call gets exactly one result; a streamed fetch (stream=true) gets a
// sequence of frames ending at the terminal frame, or one JSON reply.
type pendingCall struct {
	ch     chan rpcResult
	stream bool
}

// streamChanDepth buffers a few frames per streamed call so the
// readLoop rarely blocks on a healthy consumer. When the consumer falls
// behind, the readLoop's blocking send stops socket reads and TCP
// backpressure reaches the server — that stall is the mechanism that
// bounds both sides' memory to O(batch) on a huge result.
const streamChanDepth = 8

// mconn is one multiplexed connection: writes are serialized under wmu,
// replies are read by a single readLoop goroutine and routed to waiting
// callers through the pending map. A connection dies on its first
// protocol error or timeout; every in-flight caller then receives the
// terminal error, and the pool dials a replacement on next use.
type mconn struct {
	conn net.Conn

	wmu sync.Mutex // serializes writeMsg calls
	w   *bufio.Writer

	// deadCh closes when the connection dies, releasing stream
	// consumers that would otherwise wait on a channel the readLoop will
	// never feed again.
	deadCh chan struct{}

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingCall
	dead    bool
	deadErr error
}

func newMconn(conn net.Conn) *mconn {
	mc := &mconn{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		deadCh:  make(chan struct{}),
		pending: make(map[uint64]*pendingCall),
	}
	go mc.readLoop()
	return mc
}

// call performs one RPC: register a pending id, write the request, wait
// for the demuxed reply or the timeout.
func (mc *mconn) call(req *request, rep *reply, timeout time.Duration) error {
	mc.mu.Lock()
	if mc.dead {
		err := mc.deadErr
		mc.mu.Unlock()
		return err
	}
	mc.nextID++
	id := mc.nextID
	pc := &pendingCall{ch: make(chan rpcResult, 1)}
	mc.pending[id] = pc
	mc.mu.Unlock()

	req.ID = id
	mc.wmu.Lock()
	mc.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := writeMsg(mc.w, req)
	mc.wmu.Unlock()
	if err != nil {
		mc.unregister(id)
		// A pre-write size refusal leaves the stream clean; only a real
		// write error poisons the connection.
		if !errors.Is(err, ErrTooLarge) {
			mc.fail(err)
		}
		return err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-pc.ch:
		if res.err != nil {
			return res.err
		}
		if res.rep == nil {
			// A frame routed to a non-streaming call is a protocol
			// violation; the connection is no longer trustworthy.
			res.frame.release()
			err := errors.New("cluster: unexpected binary frame for non-streamed rpc")
			mc.fail(err)
			return err
		}
		*rep = *res.rep
		return nil
	case <-timer.C:
		mc.unregister(id)
		mc.fail(errRPCTimeout)
		return fmt.Errorf("%w after %v", errRPCTimeout, timeout)
	}
}

// stream performs one streamed-fetch RPC. The server answers either
// with a plain JSON envelope (a refusal, a supply race, or an error) —
// delivered into rep with jsonReply=true exactly like call — or with a
// sequence of binary frames delivered to onFrame in arrival order.
// onFrame returns done=true on the terminal frame; the timeout is a
// per-frame progress bound, not a whole-stream bound.
//
// A non-nil onFrame error aborts consumption without poisoning the
// connection: the demux keeps draining (and dropping) the remaining
// frames for this id, so other RPCs multiplexed on the connection are
// unaffected.
func (mc *mconn) stream(req *request, rep *reply, timeout time.Duration, onFrame func(typ byte, payload []byte) (bool, error)) (jsonReply bool, err error) {
	mc.mu.Lock()
	if mc.dead {
		err := mc.deadErr
		mc.mu.Unlock()
		return false, err
	}
	mc.nextID++
	id := mc.nextID
	pc := &pendingCall{ch: make(chan rpcResult, streamChanDepth), stream: true}
	mc.pending[id] = pc
	mc.mu.Unlock()

	req.ID = id
	mc.wmu.Lock()
	mc.conn.SetWriteDeadline(time.Now().Add(timeout))
	err = writeMsg(mc.w, req)
	mc.wmu.Unlock()
	if err != nil {
		mc.unregister(id)
		if !errors.Is(err, ErrTooLarge) {
			mc.fail(err)
		}
		return false, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		var res rpcResult
		select {
		case res = <-pc.ch:
		default:
			// Nothing buffered: wait, but notice connection death — the
			// buffered-first read above guarantees results that raced in
			// before the failure (possibly including the terminal frame)
			// are processed before the death is reported.
			select {
			case res = <-pc.ch:
			case <-mc.deadCh:
				return false, mc.terminalErr()
			case <-timer.C:
				mc.unregister(id)
				mc.fail(errRPCTimeout)
				return false, fmt.Errorf("%w mid-stream after %v", errRPCTimeout, timeout)
			}
		}
		switch {
		case res.err != nil:
			return false, res.err
		case res.rep != nil:
			// A JSON reply: a refusal, a supply race, or an error.
			*rep = *res.rep
			return true, nil
		default:
			done, ferr := onFrame(res.frame.typ, res.frame.payload)
			res.frame.release()
			if ferr != nil {
				// Keep draining the stream's remaining frames in the
				// background: the demux may already be blocked sending to
				// this channel, and only the terminal message (or the
				// connection dying) ends the server's stream. The
				// connection stays usable for other RPCs throughout.
				go mc.drainStream(pc)
				return false, ferr
			}
			if done {
				// The demux already unregistered the id on the terminal
				// frame.
				return false, nil
			}
			timer.Reset(timeout)
		}
	}
}

// drainStream consumes and discards an aborted stream's remaining
// messages until its terminal message or connection death, keeping the
// shared readLoop from blocking on the abandoned channel.
func (mc *mconn) drainStream(pc *pendingCall) {
	for {
		select {
		case res := <-pc.ch:
			final := res.err != nil || res.rep != nil || res.frame.typ == frameTypeEnd
			res.frame.release()
			if final {
				return
			}
		case <-mc.deadCh:
			return
		}
	}
}

// terminalErr reports the connection's death error.
func (mc *mconn) terminalErr() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.deadErr != nil {
		return mc.deadErr
	}
	return errors.New("cluster: connection closed")
}

func (mc *mconn) unregister(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// readLoop demuxes messages by id until the connection dies. The first
// byte picks the lane: frameMagic opens a binary frame, anything else
// (in practice '{') a newline-delimited JSON reply — the magic byte is
// chosen so the two can never be confused. Messages for ids no longer
// pending (a caller timed out or aborted meanwhile) are dropped.
func (mc *mconn) readLoop() {
	r := bufio.NewReader(mc.conn)
	for {
		first, err := r.Peek(1)
		if err != nil {
			mc.fail(err)
			return
		}
		if first[0] == frameMagic {
			fm, err := readFrame(r)
			if err != nil {
				mc.fail(err)
				return
			}
			mc.route(fm.id, rpcResult{frame: fm}, fm.typ == frameTypeEnd)
			continue
		}
		rep := new(reply)
		if err := readMsg(r, rep); err != nil {
			mc.fail(err)
			return
		}
		mc.route(rep.ID, rpcResult{rep: rep}, true)
	}
}

// route delivers one demuxed result to its pending call, unregistering
// the id when the result is final (a JSON reply or a terminal frame).
// Unclaimed results are dropped. The send blocks when a streamed call's
// buffer is full — deliberately: a stalled consumer must stall socket
// reads so TCP backpressure reaches the server and neither side buffers
// an unbounded result. Connection death unblocks the send.
func (mc *mconn) route(id uint64, res rpcResult, final bool) {
	mc.mu.Lock()
	pc, ok := mc.pending[id]
	if ok && final {
		delete(mc.pending, id)
	}
	mc.mu.Unlock()
	if !ok {
		res.frame.release()
		return
	}
	select {
	case pc.ch <- res:
	case <-mc.deadCh:
		res.frame.release()
	}
}

// fail marks the connection dead, closes it (unblocking the readLoop),
// and delivers the terminal error to every in-flight caller.
// Idempotent; the first error wins. deadCh closes before the error
// sends so a streamed consumer blocked elsewhere is released even
// though its channel may be full; the sends are non-blocking for the
// same reason (a full channel's consumer will see deadCh instead).
func (mc *mconn) fail(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.deadErr = err
	waiters := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	close(mc.deadCh)
	mc.conn.Close()
	for _, pc := range waiters {
		select {
		case pc.ch <- rpcResult{err: err}:
		default:
		}
	}
}

func (mc *mconn) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// pool is a fixed-size set of multiplexed connections to one node, used
// round-robin. Slots dial lazily; dead slots re-dial on next use.
type pool struct {
	addr string
	wc   *wireCounter // nil disables byte accounting

	mu     sync.Mutex
	slots  []*mconn
	next   int
	closed bool
}

func newPool(addr string, size int, wc *wireCounter) *pool {
	return &pool{addr: addr, wc: wc, slots: make([]*mconn, size)}
}

// get returns a live connection from the next slot, dialing if the slot
// is empty or its connection has died. The dial happens outside the
// pool lock so a slow node never serializes the other slots; if a
// concurrent caller repopulated the slot first, the loser's dial is
// discarded.
func (p *pool) get(timeout time.Duration) (*mconn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
	}
	i := p.next % len(p.slots)
	p.next++
	if mc := p.slots[i]; mc != nil && !mc.isDead() {
		p.mu.Unlock()
		return mc, nil
	}
	p.mu.Unlock()

	conn, err := dial(p.addr, timeout)
	if err != nil {
		return nil, err
	}
	if p.wc != nil {
		conn = &countedConn{Conn: conn, wc: p.wc}
	}
	nc := newMconn(conn)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.fail(errPoolClosed)
		return nil, errPoolClosed
	}
	if cur := p.slots[i]; cur != nil && !cur.isDead() {
		p.mu.Unlock()
		nc.fail(errPoolClosed) // lost the dial race; use the winner
		return cur, nil
	}
	p.slots[i] = nc
	p.mu.Unlock()
	return nc, nil
}

// closeAll shuts every connection and refuses further use.
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	slots := p.slots
	p.slots = make([]*mconn, len(slots))
	p.mu.Unlock()
	for _, mc := range slots {
		if mc != nil {
			mc.fail(errPoolClosed)
		}
	}
}

// nodeTransport is one node's pooled transport, split into two lanes:
// "control" carries negotiate/stats (short, Timeout-bounded RPCs) and
// "data" carries execute/fetch (long, execTimeout-bounded RPCs). The
// split keeps a short RPC's timeout from evicting a connection with a
// long execution in flight, and keeps the per-op connection accounting
// that the resilience tests pin (one control dial + one data dial per
// healthy negotiate→execute exchange).
type nodeTransport struct {
	control *pool
	data    *pool
}

func newNodeTransport(addr string, size int, wc *wireCounter) *nodeTransport {
	return &nodeTransport{control: newPool(addr, size, wc), data: newPool(addr, size, wc)}
}

// lane picks the pool for an op.
func (nt *nodeTransport) lane(op string) *pool {
	if op == "execute" || op == "fetch" {
		return nt.data
	}
	return nt.control
}

func (nt *nodeTransport) close() {
	nt.control.closeAll()
	nt.data.closeAll()
}
