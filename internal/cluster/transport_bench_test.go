package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// startBenchNode stands up one federation node over a tiny seeded
// dataset for transport benchmarks.
func startBenchNode(b *testing.B) (*Node, string) {
	b.Helper()
	ds, err := GenerateDataset(DatasetParams{
		Nodes: 1, Tables: 2, Views: 2, RowsPerTable: 20, MinCopies: 1, MaxCopies: 1,
	}, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	n, err := StartNode("127.0.0.1:0", NodeConfig{
		DB: ds.DBs[0], MsPerCostUnit: 0.001, PeriodMs: 50, Market: market.DefaultConfig(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	return n, n.Addr()
}

func benchClient(b *testing.B, addr string, transport Transport) *Client {
	b.Helper()
	c, err := NewClient(ClientConfig{
		Addrs: []string{addr}, Timeout: 5 * time.Second, Transport: transport,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// BenchmarkTransportRPC measures one sequential stats exchange: the
// pooled transport saves the dial round trip the fresh one pays per op.
func BenchmarkTransportRPC(b *testing.B) {
	for _, transport := range []Transport{TransportFresh, TransportPooled} {
		b.Run(string(transport), func(b *testing.B) {
			_, addr := startBenchNode(b)
			c := benchClient(b, addr, transport)
			if _, err := c.Stats(addr); err != nil { // warm the pool / plan caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Stats(addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportConcurrent is the acceptance benchmark's shape:
// 8 concurrent callers per proc hammering one node. Multiplexing lets
// the pooled transport overlap RPCs on a handful of connections where
// the fresh transport pays a dial each.
func BenchmarkTransportConcurrent(b *testing.B) {
	for _, transport := range []Transport{TransportFresh, TransportPooled} {
		b.Run(string(transport), func(b *testing.B) {
			_, addr := startBenchNode(b)
			c := benchClient(b, addr, transport)
			if _, err := c.Stats(addr); err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := c.Stats(addr); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchResult builds the acceptance criterion's 1,000-row, 4-column
// result (int, float, text, bool; every tenth row has a NULL).
func benchResult() *sqldb.Result {
	res := &sqldb.Result{Columns: []string{"id", "score", "name", "ok"}}
	for i := 0; i < 1000; i++ {
		row := sqldb.Row{
			sqldb.NewInt(int64(i)),
			sqldb.NewFloat(float64(i) * 1.5),
			sqldb.NewText(fmt.Sprintf("name-%d", i)),
			sqldb.NewBool(i%2 == 0),
		}
		if i%10 == 0 {
			row[1] = sqldb.Null
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// resetFetchStream rewinds a fetchStream for the next decode while
// keeping its reusable header/block buffers warm.
func resetFetchStream(fs *fetchStream) {
	fs.gotHeader, fs.done = false, false
	fs.recv, fs.delivered, fs.batches, fs.skip = 0, 0, 0, 0
	fs.end = frameEnd{}
}

// benchFrameRoundTrip is one full frame-path fetch: server-side encode
// of header + batches + end into a pooled buffer, then client-side
// decode through fetchStream into reusable column blocks. The input is
// a driver block — the same columnar shape a storage driver's Execute
// returns — so the encode half exercises the zero-transposition path
// the server runs in production. Returns the rows delivered to the
// sink.
func benchFrameRoundTrip(blk *ColBlock, fb *frameBuf, src *bytes.Reader, br *bufio.Reader, fs *fetchStream, cur *driver.Cursor, chunk *ColBlock) (int64, error) {
	const batch = 256
	buf := appendFetchHeader(fb.b[:0], 1, blk.Columns, 1, batch, blk.Rows)
	cur.Row = 0
	for blk.NextBatch(cur, batch, chunk) {
		buf = appendFetchBatchCols(buf, 1, chunk)
	}
	buf = appendFetchEnd(buf, 1, uint64(blk.Rows), (blk.Rows+batch-1)/batch, "")
	fb.b = buf
	src.Reset(buf)
	br.Reset(src)
	resetFetchStream(fs)
	for !fs.done {
		fm, err := readFrame(br)
		if err != nil {
			return fs.delivered, err
		}
		_, err = fs.onFrame(fm.typ, fm.payload)
		fm.release()
		if err != nil {
			return fs.delivered, err
		}
	}
	return fs.delivered, nil
}

// BenchmarkFetchFrameRoundTrip measures the fetch path's result round
// trip: a 1,000-row result through frame encode + streamed decode. It
// must stay at <= 16 allocs/op, asserted by TestFetchFrameAllocs.
func BenchmarkFetchFrameRoundTrip(b *testing.B) {
	res := benchResult()
	blk := driver.FromResult(res)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	var (
		src bytes.Reader
		sum int64
	)
	br := bufio.NewReader(&src)
	var (
		cur   driver.Cursor
		chunk ColBlock
	)
	fs := &fetchStream{sink: func(blk *ColBlock) error {
		for _, v := range blk.Cols[0].Ints {
			sum += v
		}
		return nil
	}}
	b.ReportAllocs()
	b.ResetTimer()
	var bytesPerOp int
	for i := 0; i < b.N; i++ {
		n, err := benchFrameRoundTrip(blk, fb, &src, br, fs, &cur, &chunk)
		if err != nil {
			b.Fatal(err)
		}
		if n != int64(blk.Rows) {
			b.Fatalf("delivered %d rows", n)
		}
		bytesPerOp = len(fb.b)
	}
	b.SetBytes(int64(bytesPerOp))
}

// TestFetchFrameAllocs pins the framing tentpole's allocation budget:
// a 1,000-row frame-path fetch must stay at or under 16 allocs — the
// remaining steady-state allocations are the per-batch text blob and
// the header's column-name strings.
func TestFetchFrameAllocs(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately bypasses itself at random under the
		// race detector, so pooled-path allocation counts are
		// nondeterministic there.
		t.Skip("allocation counts are not deterministic under -race")
	}
	res := benchResult()
	blk := driver.FromResult(res)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	var src bytes.Reader
	br := bufio.NewReader(&src)
	var sum int64
	var (
		cur   driver.Cursor
		chunk ColBlock
	)
	fs := &fetchStream{sink: func(blk *ColBlock) error {
		for _, v := range blk.Cols[0].Ints {
			sum += v
		}
		return nil
	}}
	allocs := testing.AllocsPerRun(50, func() {
		if n, err := benchFrameRoundTrip(blk, fb, &src, br, fs, &cur, &chunk); err != nil || n != int64(blk.Rows) {
			t.Fatalf("round trip: n=%d err=%v", n, err)
		}
	})
	if allocs > 16 {
		t.Fatalf("frame fetch round trip costs %.0f allocs/op, budget is 16", allocs)
	}
}
