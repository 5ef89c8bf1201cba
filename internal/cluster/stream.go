package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/metrics"
)

// This file holds the two halves of a streamed fetch: the server's
// frame writer (streamFetch, invoked by serveConn for every accepted
// fetch) and the client's frame consumer (fetchStream, fed by
// mconn.stream or freshStream).
//
// Memory stays O(batch) on both sides by construction: the server
// appends one batch into a pooled buffer and flushes it before
// building the next, and the client decodes each frame into one
// reusable ColBlock handed to the caller's sink. When the sink is
// slow, the client's demux blocks, its socket reads stop, and TCP
// backpressure stalls the server's flush — the transport itself is the
// flow control.

// frameStream carries an accepted fetch result from the handler to
// serveConn's writer goroutine, which streams it as binary frames.
type frameStream struct {
	res    *ColBlock
	execMs float64
	batch  int // max rows per batch frame
}

// errStreamAbort wraps an error returned by a streamed fetch's sink:
// the consumer itself refused the data. Transport and peer stay
// healthy, so the failure is terminal for the query, not the node.
var errStreamAbort = errors.New("cluster: fetch sink aborted stream")

// writeFrame flushes the frame bytes appended to buf since start,
// under the connection's shared write lock. Taking the lock per frame
// (not per stream) keeps the multiplexed connection live for other
// replies between batches of a long stream.
func writeFrame(w *bufio.Writer, wmu *sync.Mutex, frame []byte) error {
	wmu.Lock()
	defer wmu.Unlock()
	if _, err := w.Write(frame); err != nil {
		return err
	}
	return w.Flush()
}

// streamFetch writes one accepted fetch result as a frame stream:
// header, bounded batches, terminal end frame. A hard shutdown mid-
// stream truncates it with an end frame carrying msgNodeStopping, so
// the client knows the delivered prefix is incomplete; the PR 6
// classification (node stopping = safe to resubmit elsewhere) holds
// for partial streams too. The write buffer is pooled and reused
// across streams.
func (n *Node) streamFetch(conn net.Conn, w *bufio.Writer, wmu *sync.Mutex, id uint64, fs *frameStream) error {
	fb := getFrameBuf()
	defer func() {
		putFrameBuf(fb)
	}()
	res := fs.res
	if res == nil {
		res = &ColBlock{}
	}
	total := res.Rows
	buf := appendFetchHeader(fb.b[:0], id, res.Columns, fs.execMs, fs.batch, total)
	fb.b = buf[:0]
	if err := writeFrame(w, wmu, buf); err != nil {
		return err
	}
	n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))

	// The result is already columnar: NextBatch re-slices the driver
	// block's typed arrays per batch and appendFetchBatchCols copies
	// them straight onto the wire — no row materialization anywhere on
	// the server's hot path.
	var (
		sent    uint64
		batches int
		errMsg  string
		cur     driver.Cursor
		batch   ColBlock
	)
	for res.NextBatch(&cur, fs.batch, &batch) {
		select {
		case <-n.stopCh:
			errMsg = msgNodeStopping
		default:
		}
		if errMsg != "" {
			break
		}
		if cut := n.frameSever.Load(); cut > 0 && int32(batches) >= cut {
			// Test hook: simulate a connection lost mid-stream. One-shot
			// so the retransmit after re-dial streams cleanly.
			n.frameSever.Store(0)
			conn.Close()
			return fmt.Errorf("cluster: frame stream severed by test hook")
		}
		buf = appendFetchBatchCols(fb.b[:0], id, &batch)
		fb.b = buf[:0]
		if err := writeFrame(w, wmu, buf); err != nil {
			return err
		}
		sent += uint64(batch.Rows)
		batches++
		n.health.Inc(metrics.FetchBatchesTotal)
		n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))
	}

	buf = appendFetchEnd(fb.b[:0], id, sent, batches, errMsg)
	fb.b = buf[:0]
	if err := writeFrame(w, wmu, buf); err != nil {
		return err
	}
	n.health.Add(metrics.FetchBytesTotal, int64(len(buf)))
	return nil
}

// --- Client side ------------------------------------------------------

// fetchStream decodes one streamed fetch reply: header, then batch
// frames delivered to sink as one reusable ColBlock (its buffers are
// overwritten between calls — the sink copies out anything it
// retains), then the terminal end frame. skip drops that many leading
// rows before delivery — the resume path, where a dedup replay
// re-streams the identical full result and the client discards the
// prefix a previous attempt already delivered.
type fetchStream struct {
	sink      func(*ColBlock) error
	skip      int64
	header    frameHeader
	gotHeader bool
	block     ColBlock
	recv      uint64 // rows received off the wire (pre-skip)
	delivered int64  // rows handed to the sink
	batches   int
	done      bool
	end       frameEnd
}

// onFrame consumes one frame; it is the callback handed to
// mconn.stream / freshStream. done=true ends the stream.
func (fs *fetchStream) onFrame(typ byte, payload []byte) (bool, error) {
	switch typ {
	case frameTypeHeader:
		if fs.gotHeader {
			return false, fmt.Errorf("%w: duplicate header frame", errFrameDecode)
		}
		if err := decodeFetchHeader(payload, &fs.header); err != nil {
			return false, err
		}
		fs.gotHeader = true
		fs.block.Columns = fs.header.columns
		return false, nil
	case frameTypeBatch:
		if !fs.gotHeader {
			return false, fmt.Errorf("%w: batch frame before header", errFrameDecode)
		}
		if err := decodeFetchBatch(payload, &fs.block); err != nil {
			return false, err
		}
		fs.batches++
		fs.recv += uint64(fs.block.Rows)
		if fs.skip > 0 {
			if int64(fs.block.Rows) <= fs.skip {
				fs.skip -= int64(fs.block.Rows)
				return false, nil
			}
			fs.block.Drop(int(fs.skip))
			fs.skip = 0
		}
		if fs.block.Rows == 0 {
			return false, nil
		}
		fs.delivered += int64(fs.block.Rows)
		if err := fs.sink(&fs.block); err != nil {
			return false, fmt.Errorf("%w: %v", errStreamAbort, err)
		}
		return false, nil
	case frameTypeEnd:
		if !fs.gotHeader {
			return false, fmt.Errorf("%w: end frame before header", errFrameDecode)
		}
		end, err := decodeFetchEnd(payload)
		if err != nil {
			return false, err
		}
		if end.errMsg == "" && end.rows != fs.recv {
			return false, fmt.Errorf("%w: end frame claims %d rows, received %d", errFrameDecode, end.rows, fs.recv)
		}
		fs.end = end
		fs.done = true
		return true, nil
	}
	return false, fmt.Errorf("%w: unexpected frame type %d", errFrameDecode, typ)
}

// envelope synthesizes the fetchReply for the classification ladder
// above fetchAttempt. The rows already went through the sink, so the
// envelope carries none.
func (fs *fetchStream) envelope() *fetchReply {
	return &fetchReply{
		Accepted: fs.header.accepted,
		Columns:  append([]string(nil), fs.header.columns...),
		ExecMs:   fs.header.execMs,
		Err:      fs.end.errMsg,
	}
}

// freshStream is the fresh-transport analogue of mconn.stream: dial,
// send the request, then demux by peeking the first byte of each
// message — frames feed onFrame, a JSON reply lands in rep
// (jsonReply=true). The per-message read deadline is a progress bound,
// like the pooled path's per-frame timer.
func freshStream(addr string, req *request, rep *reply, timeout time.Duration, onFrame func(typ byte, payload []byte) (bool, error), wc *wireCounter) (jsonReply bool, err error) {
	conn, err := dial(addr, timeout)
	if err != nil {
		return false, fmt.Errorf("%w: %v", errNotSent, err)
	}
	defer conn.Close()
	if wc != nil {
		conn = &countedConn{Conn: conn, wc: wc}
	}
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return false, err
	}
	w := bufio.NewWriter(conn)
	if err := writeMsg(w, req); err != nil {
		return false, err
	}
	r := bufio.NewReader(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return false, err
		}
		first, err := r.Peek(1)
		if err != nil {
			return false, err
		}
		if first[0] != frameMagic {
			return true, readMsg(r, rep)
		}
		fm, err := readFrame(r)
		if err != nil {
			return false, err
		}
		done, ferr := onFrame(fm.typ, fm.payload)
		fm.release()
		if ferr != nil {
			return false, ferr
		}
		if done {
			return false, nil
		}
	}
}
