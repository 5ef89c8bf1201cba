package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// Binary fetch framing (frameV1). The newline-delimited JSON lane is
// the protocol's request and control plane — requests are small — but
// an accepted fetch result always comes back as a sequence of
// length-prefixed little-endian binary frames:
//
//	header frame  (accepted, exec ms, column names, batch size, row count)
//	batch frame   (<= batch-size rows as typed columns)  — repeated
//	end frame     (terminal marker: rows sent, batch count, error)
//
// Every refusal, error, or supply race stays a JSON reply, so the frame
// path only ever carries the hot payload. The first byte distinguishes
// the lanes: frames start with frameMagic (0xFA), which can never open
// a JSON message ('{' is 0x7B), so readers peek one byte and demux.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       1     magic (0xFA)
//	1       1     version (1)
//	2       1     type (1 header, 2 batch, 3 end)
//	3       1     flags (reserved, 0)
//	4       8     request id (echoes the request's id)
//	12      4     payload length
//	16      ...   payload
const (
	frameMagic      = 0xFA
	frameTypeHeader = 1
	frameTypeBatch  = 2
	frameTypeEnd    = 3
	frameHdrLen     = 16
	// maxFramePayload bounds one frame's payload, the binary lane's
	// analogue of maxLineBytes: a corrupt length prefix must not make a
	// reader allocate gigabytes. Batches are bounded by FetchBatchRows,
	// so real payloads sit far below this.
	maxFramePayload = 1 << 26
)

// frameV1 is the frame format version every frame header carries;
// readFrame refuses any other value.
const frameV1 = 1

// Per-row kind bytes of a batch frame's columns. They are the driver
// block's own kind bytes, so a driver-produced block goes on the wire
// without re-tagging.
const (
	kindByteNull  = driver.KindByteNull
	kindByteInt   = driver.KindByteInt
	kindByteFloat = driver.KindByteFloat
	kindByteText  = driver.KindByteText
	kindByteBool  = driver.KindByteBool
)

// errFrameDecode reports a malformed frame. The connection is
// unrecoverable afterwards (the stream position is mid-frame), so
// readers drop it, exactly like errLineTooLong on the JSON lane.
var errFrameDecode = errors.New("cluster: malformed binary frame")

// frameBuf is a pooled, grown-once byte buffer shared by frame writers
// (one per stream) and frame readers (one per in-flight frame). Pooling
// keeps the steady-state fetch path allocation-free: after warm-up the
// same backing arrays carry every stream.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrameBuf() *frameBuf { return frameBufPool.Get().(*frameBuf) }
func putFrameBuf(fb *frameBuf) {
	if fb != nil {
		frameBufPool.Put(fb)
	}
}

// beginFrame appends a frame header with a zero payload length and
// returns the header's offset for endFrame to patch.
func beginFrame(buf []byte, typ byte, id uint64) ([]byte, int) {
	hdr := len(buf)
	buf = append(buf, frameMagic, frameV1, typ, 0)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	return buf, hdr
}

// endFrame patches the payload length of the frame begun at hdr.
func endFrame(buf []byte, hdr int) []byte {
	binary.LittleEndian.PutUint32(buf[hdr+12:hdr+16], uint32(len(buf)-hdr-frameHdrLen))
	return buf
}

// appendFetchHeader appends the stream-opening header frame: accepted
// flag, server-side exec time, column names, the batch size the server
// will honor, and the total row count.
func appendFetchHeader(buf []byte, id uint64, columns []string, execMs float64, batchRows int, totalRows int) []byte {
	buf, hdr := beginFrame(buf, frameTypeHeader, id)
	buf = append(buf, 1) // accepted; refusals never reach the frame lane
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(execMs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(columns)))
	for _, name := range columns {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(batchRows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(totalRows))
	return endFrame(buf, hdr)
}

// appendFetchBatch appends one batch frame carrying res.Rows[lo:hi].
// It is the row-input convenience over appendFetchBatchCols for tests;
// the streaming path hands the encoder a driver block directly and
// never materializes rows.
func appendFetchBatch(buf []byte, id uint64, res *sqldb.Result, lo, hi int) []byte {
	var blk ColBlock
	blk.FillFromRows(res.Columns, res.Rows[lo:hi])
	return appendFetchBatchCols(buf, id, &blk)
}

// appendFetchBatchCols appends one batch frame carrying blk's rows as
// typed columns: per column, one kind byte per row (kindByteNull and
// friends), then the non-null values of each type in row order — ints
// and floats as fixed 8-byte words, texts as a length table plus one
// concatenated blob (so the client can decode all of a column's strings
// with a single allocation), bools as packed bits. Because driver
// blocks already hold exactly this layout, encoding is a straight copy
// of each typed array — no per-row dispatch and no transposition.
func appendFetchBatchCols(buf []byte, id uint64, blk *ColBlock) []byte {
	buf, hdr := beginFrame(buf, frameTypeBatch, id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(blk.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blk.Cols)))
	for j := range blk.Cols {
		col := &blk.Cols[j]
		buf = append(buf, col.Kinds...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(col.Ints)))
		for _, v := range col.Ints {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(col.Floats)))
		for _, v := range col.Floats {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		blobLen := 0
		for _, t := range col.Texts {
			blobLen += len(t)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(col.Texts)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(blobLen))
		for _, t := range col.Texts {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t)))
		}
		for _, t := range col.Texts {
			buf = append(buf, t...)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(col.Bools)))
		var bits, filled byte
		for _, v := range col.Bools {
			if v {
				bits |= 1 << filled
			}
			filled++
			if filled == 8 {
				buf = append(buf, bits)
				bits, filled = 0, 0
			}
		}
		if filled > 0 {
			buf = append(buf, bits)
		}
	}
	return endFrame(buf, hdr)
}

// appendFetchEnd appends the terminal frame: rows and batches sent, and
// the stream's error ("" for a clean finish; msgNodeStopping when a
// hard shutdown interrupted the stream mid-result).
func appendFetchEnd(buf []byte, id uint64, rows uint64, batches int, errMsg string) []byte {
	buf, hdr := beginFrame(buf, frameTypeEnd, id)
	buf = binary.LittleEndian.AppendUint64(buf, rows)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(batches))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(errMsg)))
	buf = append(buf, errMsg...)
	return endFrame(buf, hdr)
}

// --- Reading ---------------------------------------------------------

// frameMsg is one frame as read off a connection. The payload is backed
// by a pooled frameBuf; whoever consumes the frame calls release.
type frameMsg struct {
	typ     byte
	id      uint64
	fb      *frameBuf
	payload []byte
}

func (fm *frameMsg) release() {
	putFrameBuf(fm.fb)
	fm.fb, fm.payload = nil, nil
}

// readFrame reads one complete frame. The caller has already peeked the
// magic byte; version, type, and payload length are validated before any
// allocation, so a corrupt prefix cannot balloon memory.
func readFrame(r *bufio.Reader) (frameMsg, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameMsg{}, err
	}
	if hdr[0] != frameMagic || hdr[1] != frameV1 {
		return frameMsg{}, fmt.Errorf("%w: magic/version %x/%d", errFrameDecode, hdr[0], hdr[1])
	}
	typ := hdr[2]
	if typ < frameTypeHeader || typ > frameTypeEnd {
		return frameMsg{}, fmt.Errorf("%w: type %d", errFrameDecode, typ)
	}
	plen := binary.LittleEndian.Uint32(hdr[12:16])
	if plen > maxFramePayload {
		return frameMsg{}, fmt.Errorf("%w: %d-byte payload exceeds limit", errFrameDecode, plen)
	}
	fb := getFrameBuf()
	if cap(fb.b) < int(plen) {
		fb.b = make([]byte, plen)
	}
	payload := fb.b[:plen]
	if _, err := io.ReadFull(r, payload); err != nil {
		putFrameBuf(fb)
		return frameMsg{}, err
	}
	return frameMsg{typ: typ, id: binary.LittleEndian.Uint64(hdr[4:12]), fb: fb, payload: payload}, nil
}

// cursor walks a frame payload with bounds checking; every getter
// reports ok=false on overrun instead of panicking, which is what the
// fuzz target leans on.
type cursor struct {
	p   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.p) - c.off }

func (c *cursor) u8() (byte, bool) {
	if c.remaining() < 1 {
		return 0, false
	}
	v := c.p[c.off]
	c.off++
	return v, true
}

func (c *cursor) u16() (uint16, bool) {
	if c.remaining() < 2 {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(c.p[c.off:])
	c.off += 2
	return v, true
}

func (c *cursor) u32() (uint32, bool) {
	if c.remaining() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(c.p[c.off:])
	c.off += 4
	return v, true
}

func (c *cursor) u64() (uint64, bool) {
	if c.remaining() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(c.p[c.off:])
	c.off += 8
	return v, true
}

func (c *cursor) bytes(n int) ([]byte, bool) {
	if n < 0 || c.remaining() < n {
		return nil, false
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b, true
}

// frameHeader is the decoded header frame. Columns is reused across
// streams by the owning fetchStream.
type frameHeader struct {
	accepted  bool
	execMs    float64
	columns   []string
	batchRows int
	totalRows uint64
}

// decodeFetchHeader parses a header-frame payload into h, reusing its
// column slice.
func decodeFetchHeader(p []byte, h *frameHeader) error {
	c := cursor{p: p}
	acc, ok1 := c.u8()
	bits, ok2 := c.u64()
	ncols, ok3 := c.u32()
	if !ok1 || !ok2 || !ok3 || int(ncols) > c.remaining() {
		return fmt.Errorf("%w: header prefix", errFrameDecode)
	}
	h.accepted = acc != 0
	h.execMs = math.Float64frombits(bits)
	h.columns = h.columns[:0]
	for i := 0; i < int(ncols); i++ {
		nlen, ok := c.u16()
		if !ok {
			return fmt.Errorf("%w: column name length", errFrameDecode)
		}
		name, ok := c.bytes(int(nlen))
		if !ok {
			return fmt.Errorf("%w: column name", errFrameDecode)
		}
		h.columns = append(h.columns, string(name))
	}
	batch, ok1 := c.u32()
	total, ok2 := c.u64()
	if !ok1 || !ok2 || c.remaining() != 0 {
		return fmt.Errorf("%w: header trailer", errFrameDecode)
	}
	h.batchRows = int(batch)
	h.totalRows = total
	return nil
}

// frameEnd is the decoded terminal frame.
type frameEnd struct {
	rows    uint64
	batches int
	errMsg  string
}

// decodeFetchEnd parses an end-frame payload.
func decodeFetchEnd(p []byte) (frameEnd, error) {
	c := cursor{p: p}
	rows, ok1 := c.u64()
	batches, ok2 := c.u32()
	elen, ok3 := c.u16()
	if !ok1 || !ok2 || !ok3 {
		return frameEnd{}, fmt.Errorf("%w: end prefix", errFrameDecode)
	}
	msg, ok := c.bytes(int(elen))
	if !ok || c.remaining() != 0 {
		return frameEnd{}, fmt.Errorf("%w: end message", errFrameDecode)
	}
	return frameEnd{rows: rows, batches: int(batches), errMsg: string(msg)}, nil
}

// Col and ColBlock are the cluster-side names for the driver package's
// columnar batch types: the same struct flows from a storage driver's
// Execute, through the frame encoder, across the wire, and out of the
// client-side decoder without transposition.
type (
	Col      = driver.Col
	ColBlock = driver.Block
)

// decodeFetchBatch parses a batch-frame payload into blk, reusing its
// buffers, and validates every count against the kind bytes so a
// malformed frame is an error, never a panic.
func decodeFetchBatch(p []byte, blk *ColBlock) error {
	c := cursor{p: p}
	nrows, ok1 := c.u32()
	ncols, ok2 := c.u32()
	if !ok1 || !ok2 {
		return fmt.Errorf("%w: batch prefix", errFrameDecode)
	}
	// A column costs at least one kind byte per row plus 20 bytes of
	// count fields (ints, floats, texts+blob, bools) even when empty, so
	// the claimed shape is bounded by the payload length — reject before
	// allocating anything.
	if uint64(ncols)*(uint64(nrows)+20) > uint64(c.remaining()) {
		return fmt.Errorf("%w: batch claims %d×%d cells in %d bytes", errFrameDecode, nrows, ncols, c.remaining())
	}
	if cap(blk.Cols) < int(ncols) {
		blk.Cols = make([]Col, ncols)
	}
	blk.Cols = blk.Cols[:ncols]
	blk.Rows = int(nrows)
	for j := range blk.Cols {
		col := &blk.Cols[j]
		kinds, ok := c.bytes(int(nrows))
		if !ok {
			return fmt.Errorf("%w: column %d kinds", errFrameDecode, j)
		}
		var ni, nf, ns, nb int
		for _, k := range kinds {
			switch k {
			case kindByteInt:
				ni++
			case kindByteFloat:
				nf++
			case kindByteText:
				ns++
			case kindByteBool:
				nb++
			case kindByteNull:
			default:
				return fmt.Errorf("%w: column %d kind byte %q", errFrameDecode, j, k)
			}
		}
		col.Kinds = append(col.Kinds[:0], kinds...)

		cnt, ok := c.u32()
		if !ok || int(cnt) != ni || c.remaining() < ni*8 {
			return fmt.Errorf("%w: column %d ints", errFrameDecode, j)
		}
		col.Ints = col.Ints[:0]
		for i := 0; i < ni; i++ {
			v, _ := c.u64()
			col.Ints = append(col.Ints, int64(v))
		}

		cnt, ok = c.u32()
		if !ok || int(cnt) != nf || c.remaining() < nf*8 {
			return fmt.Errorf("%w: column %d floats", errFrameDecode, j)
		}
		col.Floats = col.Floats[:0]
		for i := 0; i < nf; i++ {
			v, _ := c.u64()
			col.Floats = append(col.Floats, math.Float64frombits(v))
		}

		cnt, ok = c.u32()
		blobLen, ok2 := c.u32()
		if !ok || !ok2 || int(cnt) != ns || c.remaining() < ns*4 {
			return fmt.Errorf("%w: column %d text table", errFrameDecode, j)
		}
		lens, _ := c.bytes(ns * 4)
		blobBytes, ok := c.bytes(int(blobLen))
		if !ok {
			return fmt.Errorf("%w: column %d text blob", errFrameDecode, j)
		}
		// One string conversion covers the whole column's texts; the
		// individual values are substrings of it. This is the decode
		// path's only steady-state allocation.
		blob := string(blobBytes)
		col.Texts = col.Texts[:0]
		off := 0
		for i := 0; i < ns; i++ {
			l := int(binary.LittleEndian.Uint32(lens[i*4:]))
			if l < 0 || off+l > len(blob) {
				return fmt.Errorf("%w: column %d text lengths exceed blob", errFrameDecode, j)
			}
			col.Texts = append(col.Texts, blob[off:off+l])
			off += l
		}
		if off != len(blob) {
			return fmt.Errorf("%w: column %d text blob not consumed", errFrameDecode, j)
		}

		cnt, ok = c.u32()
		if !ok || int(cnt) != nb {
			return fmt.Errorf("%w: column %d bools", errFrameDecode, j)
		}
		packed, ok := c.bytes((nb + 7) / 8)
		if !ok {
			return fmt.Errorf("%w: column %d bool bits", errFrameDecode, j)
		}
		col.Bools = col.Bools[:0]
		for i := 0; i < nb; i++ {
			col.Bools = append(col.Bools, packed[i/8]&(1<<(i%8)) != 0)
		}
	}
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing batch bytes", errFrameDecode, c.remaining())
	}
	return nil
}
