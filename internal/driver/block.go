package driver

import (
	"errors"
	"fmt"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// Per-row kind bytes. These are the same bytes the cluster's binary
// frame lane puts on the wire, so a driver-produced block serializes
// without any re-tagging.
const (
	KindByteNull  = 'n'
	KindByteInt   = 'i'
	KindByteFloat = 'f'
	KindByteText  = 's'
	KindByteBool  = 'b'
)

// ErrMalformed reports a column block whose typed arrays disagree with
// its kind bytes.
var ErrMalformed = errors.New("driver: malformed column block")

// Col is one column of a block: the per-row kind bytes plus the typed
// values of each kind in row order, all backed by buffers the owning
// Block reuses batch to batch.
type Col struct {
	Kinds  []byte
	Ints   []int64
	Floats []float64
	Texts  []string
	Bools  []bool
}

// Block is a typed columnar result set (or one batch of one): per-row
// kind bytes plus densely packed typed arrays per column. It is the
// unit drivers produce and the frame lane serializes with zero
// transposition. Reusing a block (decode, FillFromRows) overwrites its
// buffers in place, so a steady-state stream allocates only the
// per-batch text blobs; callers that retain values across batches must
// copy them out.
type Block struct {
	Columns []string
	Rows    int
	Cols    []Col
}

// Reset empties the block, keeping its buffers for reuse.
func (b *Block) Reset() {
	b.Columns = b.Columns[:0]
	b.Rows = 0
	b.Cols = b.Cols[:0]
}

// AppendRows materializes the block's rows onto dst, keeping one typed-
// array cursor per column so the walk is linear in cells. It allocates
// one backing cell array and one cursor array per call (the accumulate
// path; streaming consumers read the columns directly and allocate
// nothing).
func (b *Block) AppendRows(dst []sqldb.Row) ([]sqldb.Row, error) {
	ncols := len(b.Cols)
	if b.Rows == 0 || ncols == 0 {
		return dst, nil
	}
	type colCursor struct{ ints, floats, texts, bools int }
	curs := make([]colCursor, ncols)
	cells := make([]sqldb.Value, b.Rows*ncols)
	for i := 0; i < b.Rows; i++ {
		row := cells[:ncols:ncols]
		cells = cells[ncols:]
		for j := 0; j < ncols; j++ {
			col := &b.Cols[j]
			if i >= len(col.Kinds) {
				return dst, fmt.Errorf("%w: row %d beyond kinds", ErrMalformed, i)
			}
			cur := &curs[j]
			switch col.Kinds[i] {
			case KindByteNull:
				row[j] = sqldb.Null
			case KindByteInt:
				if cur.ints >= len(col.Ints) {
					return dst, fmt.Errorf("%w: column %d int underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewInt(col.Ints[cur.ints])
				cur.ints++
			case KindByteFloat:
				if cur.floats >= len(col.Floats) {
					return dst, fmt.Errorf("%w: column %d float underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewFloat(col.Floats[cur.floats])
				cur.floats++
			case KindByteText:
				if cur.texts >= len(col.Texts) {
					return dst, fmt.Errorf("%w: column %d text underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewText(col.Texts[cur.texts])
				cur.texts++
			case KindByteBool:
				if cur.bools >= len(col.Bools) {
					return dst, fmt.Errorf("%w: column %d bool underflow", ErrMalformed, j)
				}
				row[j] = sqldb.NewBool(col.Bools[cur.bools])
				cur.bools++
			default:
				return dst, fmt.Errorf("%w: kind %q", ErrMalformed, col.Kinds[i])
			}
		}
		dst = append(dst, row)
	}
	return dst, nil
}

// Value reads one cell. It re-derives the typed-array index by scanning
// the kind prefix, so it is for tests, spot reads, and small blocks;
// AppendRows keeps per-column counters instead.
func (b *Block) Value(i, j int) (sqldb.Value, error) {
	col := &b.Cols[j]
	if i >= len(col.Kinds) {
		return sqldb.Null, fmt.Errorf("%w: row %d beyond kinds", ErrMalformed, i)
	}
	idx := 0
	k := col.Kinds[i]
	for r := 0; r < i; r++ {
		if col.Kinds[r] == k {
			idx++
		}
	}
	switch k {
	case KindByteNull:
		return sqldb.Null, nil
	case KindByteInt:
		return sqldb.NewInt(col.Ints[idx]), nil
	case KindByteFloat:
		return sqldb.NewFloat(col.Floats[idx]), nil
	case KindByteText:
		return sqldb.NewText(col.Texts[idx]), nil
	case KindByteBool:
		return sqldb.NewBool(col.Bools[idx]), nil
	}
	return sqldb.Null, fmt.Errorf("%w: kind %q", ErrMalformed, k)
}

// Drop discards the block's first k rows in place, trimming each typed
// array by however many of its values the dropped kind bytes consumed.
// The cluster's resume path uses it when a dedup replay overlaps rows a
// previous attempt already delivered.
func (b *Block) Drop(k int) {
	if k <= 0 {
		return
	}
	if k > b.Rows {
		k = b.Rows
	}
	for j := range b.Cols {
		col := &b.Cols[j]
		ni, nf, ns, nb := countKinds(col.Kinds[:k])
		col.Kinds = col.Kinds[k:]
		col.Ints = col.Ints[ni:]
		col.Floats = col.Floats[nf:]
		col.Texts = col.Texts[ns:]
		col.Bools = col.Bools[nb:]
	}
	b.Rows -= k
}

// Truncate keeps only the block's first n rows, trimming each typed
// array to the values those rows consume. The mock driver's
// partial-batch fault uses it.
func (b *Block) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n >= b.Rows {
		return
	}
	for j := range b.Cols {
		col := &b.Cols[j]
		ni, nf, ns, nb := countKinds(col.Kinds[:n])
		col.Kinds = col.Kinds[:n]
		col.Ints = col.Ints[:ni]
		col.Floats = col.Floats[:nf]
		col.Texts = col.Texts[:ns]
		col.Bools = col.Bools[:nb]
	}
	b.Rows = n
}

// countKinds tallies how many values of each typed array a run of kind
// bytes consumes.
func countKinds(kinds []byte) (ni, nf, ns, nb int) {
	for _, k := range kinds {
		switch k {
		case KindByteInt:
			ni++
		case KindByteFloat:
			nf++
		case KindByteText:
			ns++
		case KindByteBool:
			nb++
		}
	}
	return
}

// FillFromRows loads already-materialized rows into the block, reusing
// its buffers — the transposition bridge for row-producing sources such
// as the legacy driver. Cells beyond a short row encode as NULL.
func (b *Block) FillFromRows(columns []string, rows []sqldb.Row) {
	b.Columns = append(b.Columns[:0], columns...)
	b.Rows = len(rows)
	ncols := len(columns)
	if cap(b.Cols) < ncols {
		b.Cols = make([]Col, ncols)
	}
	b.Cols = b.Cols[:ncols]
	for j := range b.Cols {
		col := &b.Cols[j]
		col.Kinds = col.Kinds[:0]
		col.Ints = col.Ints[:0]
		col.Floats = col.Floats[:0]
		col.Texts = col.Texts[:0]
		col.Bools = col.Bools[:0]
		for _, row := range rows {
			if j >= len(row) {
				col.Kinds = append(col.Kinds, KindByteNull)
				continue
			}
			v := row[j]
			switch v.Kind {
			case sqldb.KindInt:
				col.Kinds = append(col.Kinds, KindByteInt)
				col.Ints = append(col.Ints, v.Int)
			case sqldb.KindFloat:
				col.Kinds = append(col.Kinds, KindByteFloat)
				col.Floats = append(col.Floats, v.Float)
			case sqldb.KindText:
				col.Kinds = append(col.Kinds, KindByteText)
				col.Texts = append(col.Texts, v.Str)
			case sqldb.KindBool:
				col.Kinds = append(col.Kinds, KindByteBool)
				col.Bools = append(col.Bools, v.Bool)
			default:
				col.Kinds = append(col.Kinds, KindByteNull)
			}
		}
	}
}

// FromResult transposes a row-engine result into a fresh block.
func FromResult(res *sqldb.Result) *Block {
	b := &Block{}
	b.FillFromRows(res.Columns, res.Rows)
	return b
}

// Cursor tracks a sequential batch walk over a block: the next row to
// emit plus per-column typed-array offsets. The zero value starts at
// row 0.
type Cursor struct {
	Row  int
	offs []colOffsets
}

type colOffsets struct{ ints, floats, texts, bools int }

// NextBatch slices the next up-to-maxRows rows of b into out as
// subslices of b's arrays — no values are copied, so the only cost is
// the kind-byte scan that finds each typed array's split point. It
// returns false when the cursor is exhausted (out is left untouched).
// The batch aliases b: it is valid until b's buffers are reused. The
// block must be well-formed (driver-produced or decode-validated).
func (b *Block) NextBatch(cur *Cursor, maxRows int, out *Block) bool {
	if cur.Row >= b.Rows || maxRows <= 0 {
		return false
	}
	ncols := len(b.Cols)
	if cur.Row == 0 || cap(cur.offs) < ncols {
		if cap(cur.offs) < ncols {
			cur.offs = make([]colOffsets, ncols)
		}
		cur.offs = cur.offs[:ncols]
		for j := range cur.offs {
			cur.offs[j] = colOffsets{}
		}
	}
	n := b.Rows - cur.Row
	if n > maxRows {
		n = maxRows
	}
	out.Columns = append(out.Columns[:0], b.Columns...)
	out.Rows = n
	if cap(out.Cols) < ncols {
		out.Cols = make([]Col, ncols)
	}
	out.Cols = out.Cols[:ncols]
	for j := range b.Cols {
		col := &b.Cols[j]
		off := &cur.offs[j]
		kinds := col.Kinds[cur.Row : cur.Row+n]
		ni, nf, ns, nb := countKinds(kinds)
		out.Cols[j] = Col{
			Kinds:  kinds,
			Ints:   col.Ints[off.ints : off.ints+ni],
			Floats: col.Floats[off.floats : off.floats+nf],
			Texts:  col.Texts[off.texts : off.texts+ns],
			Bools:  col.Bools[off.bools : off.bools+nb],
		}
		off.ints += ni
		off.floats += nf
		off.texts += ns
		off.bools += nb
	}
	cur.Row += n
	return true
}
