package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// frameTestResult builds a deterministic mixed-kind result: every value
// kind, nulls sprinkled through every column, unicode and empty
// strings — the codec's worst case.
func frameTestResult(rows int) *sqldb.Result {
	res := &sqldb.Result{Columns: []string{"id", "score", "name", "ok"}}
	for i := 0; i < rows; i++ {
		row := sqldb.Row{
			sqldb.NewInt(int64(i * 3)),
			sqldb.NewFloat(float64(i) * 1.5),
			sqldb.NewText(fmt.Sprintf("näme-%d-✓", i)),
			sqldb.NewBool(i%3 == 0),
		}
		switch i % 5 {
		case 1:
			row[0] = sqldb.Null
		case 2:
			row[1] = sqldb.Null
		case 3:
			row[2] = sqldb.NewText("")
		case 4:
			row[3] = sqldb.Null
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func TestFrameBatchRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 100} {
		res := frameTestResult(rows)
		buf := appendFetchBatch(nil, 42, res, 0, rows)

		fm := mustReadOneFrame(t, buf)
		if fm.typ != frameTypeBatch || fm.id != 42 {
			t.Fatalf("frame typ=%d id=%d", fm.typ, fm.id)
		}
		var blk ColBlock
		if err := decodeFetchBatch(fm.payload, &blk); err != nil {
			t.Fatalf("decode %d rows: %v", rows, err)
		}
		if blk.Rows != rows {
			t.Fatalf("decoded %d rows, want %d", blk.Rows, rows)
		}
		got, err := blk.AppendRows(nil)
		if err != nil {
			t.Fatalf("AppendRows: %v", err)
		}
		if !reflect.DeepEqual([]sqldb.Row(res.Rows), got) && rows > 0 {
			t.Fatalf("round trip mismatch at %d rows:\n got %v\nwant %v", rows, got, res.Rows)
		}
		// The cell accessor must agree with the materialized rows.
		for i := 0; i < blk.Rows; i++ {
			for j := range blk.Cols {
				v, err := blk.Value(i, j)
				if err != nil {
					t.Fatalf("value(%d,%d): %v", i, j, err)
				}
				if v != res.Rows[i][j] {
					t.Fatalf("value(%d,%d) = %v, want %v", i, j, v, res.Rows[i][j])
				}
			}
		}
	}
}

// TestFrameBatchRoundTripValues runs value-level edge cases and a
// random kind-mix property through a real appendFetchBatch → readFrame
// → decodeFetchBatch hop: results with no rows or no columns, every
// kind mixed in one column, ints far past float64's exact-integer
// range, and 200 random results of every kind mix.
func TestFrameBatchRoundTripValues(t *testing.T) {
	cases := []struct {
		name string
		res  *sqldb.Result
	}{
		{"empty result", &sqldb.Result{Columns: []string{"a", "b"}}},
		{"no columns", &sqldb.Result{}},
		{"all kinds", &sqldb.Result{
			Columns: []string{"i", "f", "s", "b", "n"},
			Rows: []sqldb.Row{
				{sqldb.NewInt(0), sqldb.NewFloat(0), sqldb.NewText(""), sqldb.NewBool(false), sqldb.Null},
				{sqldb.NewInt(-42), sqldb.NewFloat(-1.5), sqldb.NewText("x y"), sqldb.NewBool(true), sqldb.Null},
				{sqldb.NewInt(1 << 40), sqldb.NewFloat(3.14159), sqldb.NewText("ünïcode"), sqldb.NewBool(false), sqldb.Null},
			},
		}},
		{"mixed kinds in one column", &sqldb.Result{
			Columns: []string{"v"},
			Rows: []sqldb.Row{
				{sqldb.NewInt(1)}, {sqldb.Null}, {sqldb.NewText("t")},
				{sqldb.NewFloat(2.5)}, {sqldb.NewBool(true)}, {sqldb.Null},
			},
		}},
		{"big ints", &sqldb.Result{
			Columns: []string{"v"},
			Rows:    []sqldb.Row{{sqldb.NewInt(1 << 60)}, {sqldb.NewInt(-(1<<60 + 1))}},
		}},
		{"scalar values", &sqldb.Result{
			Columns: []string{"v"},
			Rows: []sqldb.Row{
				{sqldb.Null}, {sqldb.NewInt(0)}, {sqldb.NewInt(-42)}, {sqldb.NewInt(1 << 40)},
				{sqldb.NewFloat(3.25)}, {sqldb.NewFloat(-0.5)}, {sqldb.NewText("")},
				{sqldb.NewText("it's")}, {sqldb.NewBool(true)}, {sqldb.NewBool(false)},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { assertFrameHop(t, tc.res) })
	}

	rng := rand.New(rand.NewSource(99))
	randValue := func() sqldb.Value {
		switch rng.Intn(5) {
		case 0:
			return sqldb.Null
		case 1:
			return sqldb.NewInt(rng.Int63n(1<<50) - 1<<49)
		case 2:
			// NaN-free, so reflect.DeepEqual can compare the rows.
			return sqldb.NewFloat((rng.Float64() - 0.5) * 1e6)
		case 3:
			letters := []byte("abcdefgh ")
			s := make([]byte, rng.Intn(8))
			for i := range s {
				s[i] = letters[rng.Intn(len(letters))]
			}
			return sqldb.NewText(string(s))
		default:
			return sqldb.NewBool(rng.Intn(2) == 0)
		}
	}
	for iter := 0; iter < 200; iter++ {
		cols := 1 + rng.Intn(5)
		res := &sqldb.Result{Columns: make([]string, cols)}
		for j := range res.Columns {
			res.Columns[j] = string(rune('a' + j))
		}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			row := make(sqldb.Row, cols)
			for j := range row {
				row[j] = randValue()
			}
			res.Rows = append(res.Rows, row)
		}
		assertFrameHop(t, res)
	}
}

// assertFrameHop sends res through one batch frame and checks the
// decoded block holds exactly its rows.
func assertFrameHop(t *testing.T, res *sqldb.Result) {
	t.Helper()
	fm := mustReadOneFrame(t, appendFetchBatch(nil, 1, res, 0, len(res.Rows)))
	var blk ColBlock
	if err := decodeFetchBatch(fm.payload, &blk); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if blk.Rows != len(res.Rows) || len(blk.Cols) != len(res.Columns) {
		t.Fatalf("decoded %d rows × %d cols, want %d × %d", blk.Rows, len(blk.Cols), len(res.Rows), len(res.Columns))
	}
	got, err := blk.AppendRows(nil)
	if err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	if len(got) != len(res.Rows) || (len(got) > 0 && !reflect.DeepEqual(got, []sqldb.Row(res.Rows))) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, res.Rows)
	}
}

func TestFrameHeaderEndRoundTrip(t *testing.T) {
	cols := []string{"a", "long_column_name", "ünïcode"}
	buf := appendFetchHeader(nil, 7, cols, 12.25, 512, 9001)
	fm := mustReadOneFrame(t, buf)
	var h frameHeader
	if err := decodeFetchHeader(fm.payload, &h); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if !h.accepted || h.execMs != 12.25 || h.batchRows != 512 || h.totalRows != 9001 ||
		!reflect.DeepEqual(h.columns, cols) {
		t.Fatalf("header round trip: %+v", h)
	}

	buf = appendFetchEnd(nil, 7, 9001, 18, msgNodeStopping)
	fm = mustReadOneFrame(t, buf)
	end, err := decodeFetchEnd(fm.payload)
	if err != nil {
		t.Fatalf("decode end: %v", err)
	}
	if end.rows != 9001 || end.batches != 18 || end.errMsg != msgNodeStopping {
		t.Fatalf("end round trip: %+v", end)
	}
}

func mustReadOneFrame(t *testing.T, buf []byte) frameMsg {
	t.Helper()
	fm, err := readFrame(bufio.NewReader(strings.NewReader(string(buf))))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return fm
}

// TestFrameDecodeRejectsMalformed truncates and corrupts golden frames
// at every byte: the decoders must answer errFrameDecode (or an IO
// error for short reads), never panic and never accept.
func TestFrameDecodeRejectsMalformed(t *testing.T) {
	res := frameTestResult(9)
	batch := appendFetchBatch(nil, 1, res, 0, 9)
	header := appendFetchHeader(nil, 1, res.Columns, 1, 4, 9)
	end := appendFetchEnd(nil, 1, 9, 3, "")

	for name, golden := range map[string][]byte{"header": header, "batch": batch, "end": end} {
		for cut := 0; cut < len(golden); cut++ {
			r := bufio.NewReader(strings.NewReader(string(golden[:cut])))
			if fm, err := readFrame(r); err == nil {
				// A truncated payload length can still form a complete
				// shorter frame; the payload decoder must then reject it.
				if decodeAny(fm) == nil {
					t.Fatalf("%s truncated at %d accepted", name, cut)
				}
			}
		}
		// Corrupt each payload byte and require the decoder to stay
		// panic-free (it may accept — some bytes are value bits).
		for i := frameHdrLen; i < len(golden); i++ {
			mut := append([]byte(nil), golden...)
			mut[i] ^= 0xFF
			if fm, err := readFrame(bufio.NewReader(strings.NewReader(string(mut)))); err == nil {
				decodeAny(fm)
			}
		}
	}

	// A corrupt length prefix must be refused before allocation.
	huge := append([]byte(nil), batch...)
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := readFrame(bufio.NewReader(strings.NewReader(string(huge)))); !errors.Is(err, errFrameDecode) {
		t.Fatalf("oversized payload length: %v", err)
	}
}

func decodeAny(fm frameMsg) error {
	switch fm.typ {
	case frameTypeHeader:
		var h frameHeader
		return decodeFetchHeader(fm.payload, &h)
	case frameTypeBatch:
		var blk ColBlock
		if err := decodeFetchBatch(fm.payload, &blk); err != nil {
			return err
		}
		_, err := blk.AppendRows(nil)
		return err
	case frameTypeEnd:
		_, err := decodeFetchEnd(fm.payload)
		return err
	}
	return errFrameDecode
}

// TestStreamedFetchBoundedMemory is the tentpole's memory guarantee: a
// 1M-row result crosses the wire without either side ever buffering
// more than O(batch). The server half streams from a materialized
// result (the engine's output), so the bound under test is the wire
// path: every frame payload and every decoded block must stay batch-
// sized, while all 1M rows arrive exactly once.
func TestStreamedFetchBoundedMemory(t *testing.T) {
	const totalRows = 1_000_000
	const batch = 2048
	res := &sqldb.Result{Columns: []string{"n", "label"}}
	res.Rows = make([]sqldb.Row, totalRows)
	for i := range res.Rows {
		res.Rows[i] = sqldb.Row{sqldb.NewInt(int64(i)), sqldb.NewText("r")}
	}

	srv := &Node{health: metrics.NewHealth()}
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	var wmu sync.Mutex
	errCh := make(chan error, 1)
	go func() {
		defer srvConn.Close()
		w := bufio.NewWriter(srvConn)
		errCh <- srv.streamFetch(srvConn, w, &wmu, 3, &frameStream{res: driver.FromResult(res), execMs: 1, batch: batch})
	}()

	var (
		delivered int64
		sum       int64
		maxRows   int
	)
	fs := &fetchStream{sink: func(blk *ColBlock) error {
		if blk.Rows > maxRows {
			maxRows = blk.Rows
		}
		delivered += int64(blk.Rows)
		for _, v := range blk.Cols[0].Ints {
			sum += v
		}
		return nil
	}}
	r := bufio.NewReader(cliConn)
	maxPayload := 0
	for {
		fm, err := readFrame(r)
		if err != nil {
			t.Fatalf("readFrame after %d rows: %v", delivered, err)
		}
		if len(fm.payload) > maxPayload {
			maxPayload = len(fm.payload)
		}
		done, err := fs.onFrame(fm.typ, fm.payload)
		fm.release()
		if err != nil {
			t.Fatalf("onFrame: %v", err)
		}
		if done {
			break
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("streamFetch: %v", err)
	}
	if delivered != totalRows || fs.end.errMsg != "" {
		t.Fatalf("delivered %d rows (end=%+v), want %d", delivered, fs.end, totalRows)
	}
	if want := int64(totalRows) * (totalRows - 1) / 2; sum != want {
		t.Fatalf("row content sum %d, want %d", sum, want)
	}
	if maxRows > batch {
		t.Fatalf("a block carried %d rows, batch bound is %d", maxRows, batch)
	}
	// One batch is ~18 bytes/row here; anything near the full result
	// size would mean the stream buffered everything in one frame.
	if bound := batch * 64; maxPayload > bound {
		t.Fatalf("a frame carried %d bytes, per-batch bound is %d", maxPayload, bound)
	}
	if got := srv.health.Snapshot()[metrics.FetchBatchesTotal]; got != float64((totalRows+batch-1)/batch) {
		t.Fatalf("fetch_batches_total = %v", got)
	}
}

// fetchFederation starts one fast node and returns a fetch-capable
// client plus a query and its locally-computed expected result.
func fetchFederation(t *testing.T, ccfg ClientConfig) (*Node, *Client, string, *sqldb.Result) {
	t.Helper()
	ds, nodes, addrs := startTestFederation(t, []float64{1})
	rng := rand.New(rand.NewSource(23))
	templates, err := ds.GenerateTemplates(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sql := templates[0].Instantiate(rng)
	want, err := ds.DBs[0].Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Addrs = addrs
	if ccfg.PeriodMs == 0 {
		ccfg.PeriodMs = 50
	}
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return nodes[0], c, sql, want
}

// TestFetchFrameMatchesJSON fetches a query over the binary frame
// stream and checks the result equals the locally computed one (the
// reference the JSON fetch encodings were once held to), that the fetch
// was counted as frame-streamed, and that the non-fetch ops keep working
// against the same node.
func TestFetchFrameMatchesJSON(t *testing.T) {
	t.Run("frame-client-frame-server", func(t *testing.T) {
		node, c, sql, want := fetchFederation(t, ClientConfig{})

		// All four ops against this node: negotiate + execute via Run,
		// fetch via Fetch, stats via Stats.
		if out := c.Run(1, sql); out.Err != nil {
			t.Fatalf("Run: %v", out.Err)
		}
		res, out := c.Fetch(2, sql)
		if out.Err != nil {
			t.Fatalf("Fetch: %v", out.Err)
		}
		if !reflect.DeepEqual(res.Columns, want.Columns) || !reflect.DeepEqual(res.Rows, want.Rows) {
			t.Fatalf("fetched result differs:\n got %v %v\nwant %v %v", res.Columns, res.Rows, want.Columns, want.Rows)
		}
		if out.Rows != len(want.Rows) {
			t.Fatalf("outcome rows %d, want %d", out.Rows, len(want.Rows))
		}
		if _, err := c.Stats(node.ID()); err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if node.health.Snapshot()[metrics.FrameNegotiatedCounter(frameV1)] == 0 {
			t.Fatal("expected a frame-streamed fetch, counter is 0")
		}
	})
}

// TestFetchEachStreamsBatches drives the callback API end to end over
// a real federation and checks the rows arrive in order, once each.
func TestFetchEachStreamsBatches(t *testing.T) {
	_, c, sql, want := fetchFederation(t, ClientConfig{FetchBatchRows: 2})
	var got []sqldb.Row
	blocks := 0
	out := c.FetchEach(1, sql, func(blk *ColBlock) error {
		blocks++
		if blk.Rows > 2 {
			t.Fatalf("block carried %d rows, requested bound 2", blk.Rows)
		}
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	if out.Err != nil {
		t.Fatalf("FetchEach: %v", out.Err)
	}
	if !reflect.DeepEqual(got, []sqldb.Row(want.Rows)) {
		t.Fatalf("streamed rows differ:\n got %v\nwant %v", got, want.Rows)
	}
	if len(want.Rows) > 2 && blocks < 2 {
		t.Fatalf("%d rows arrived in %d blocks; batching not honored", len(want.Rows), blocks)
	}
	if out.Rows != len(want.Rows) {
		t.Fatalf("outcome rows %d, want %d", out.Rows, len(want.Rows))
	}
}

// TestFetchSinkAbortKeepsConnectionUsable: a sink that refuses the
// stream kills that query terminally (errStreamAbort) but must not
// poison the pooled connection or the breaker — the next fetch on the
// same client succeeds.
func TestFetchSinkAbortKeepsConnectionUsable(t *testing.T) {
	_, c, sql, want := fetchFederation(t, ClientConfig{FetchBatchRows: 1})
	boom := errors.New("sink full")
	out := c.FetchEach(1, sql, func(*ColBlock) error { return boom })
	if out.Err == nil || !strings.Contains(out.Err.Error(), "sink") {
		t.Fatalf("aborted fetch err = %v", out.Err)
	}
	if st := c.nodes()[0].breaker.snapshot(); st != breakerClosed {
		t.Fatalf("breaker %v after sink abort, want closed", st)
	}
	res, out := c.Fetch(2, sql)
	if out.Err != nil {
		t.Fatalf("fetch after abort: %v", out.Err)
	}
	if !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatal("fetch after abort returned wrong rows")
	}
}

// TestPartialStreamResume is the exactly-once acceptance test for
// callback-mode delivery: the server severs the connection after the
// first streamed batch; the client must resume on the same node via
// the dedup window's replay, skipping the delivered prefix, so the
// caller sees every row exactly once.
func TestPartialStreamResume(t *testing.T) {
	node, c, sql, want := fetchFederation(t, ClientConfig{
		FetchBatchRows: 1, ExecRetries: 3, Timeout: 2 * time.Second,
	})
	if len(want.Rows) < 2 {
		t.Skipf("need a multi-row result, got %d", len(want.Rows))
	}
	node.frameSever.Store(1) // cut the stream after one batch

	var got []sqldb.Row
	out := c.FetchEach(1, sql, func(blk *ColBlock) error {
		var err error
		got, err = blk.AppendRows(got)
		return err
	})
	if out.Err != nil {
		t.Fatalf("FetchEach with severed stream: %v", out.Err)
	}
	if !reflect.DeepEqual(got, []sqldb.Row(want.Rows)) {
		t.Fatalf("resume delivered wrong rows:\n got %v\nwant %v", got, want.Rows)
	}
	if out.Retries == 0 {
		t.Fatal("resume should have charged a retry")
	}
	if hits := node.health.Snapshot()[metrics.DedupHitsTotal]; hits == 0 {
		t.Fatal("resume should have replayed from the dedup window")
	}
}

// TestOversizedRequestTypedRefusal is the satellite regression test: a
// request over maxLineBytes gets a typed too_large JSON refusal before
// the server hangs up, the client classifies it as terminal, and the
// breaker never trips (the node is healthy; retrying cannot shrink the
// request).
func TestOversizedRequestTypedRefusal(t *testing.T) {
	_, node, addr, _ := protectionQuery(t)

	t.Run("raw-wire", func(t *testing.T) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		// Handcraft a >1MiB request that a current client's own pre-write
		// check would refuse to send.
		big := fmt.Sprintf(`{"op":"negotiate","sql":"SELECT 1 FROM t WHERE x = '%s'"}`+"\n",
			strings.Repeat("a", maxLineBytes))
		if _, err := conn.Write([]byte(big)); err != nil {
			t.Fatal(err)
		}
		var rep reply
		if err := readMsg(bufio.NewReader(conn), &rep); err != nil {
			t.Fatalf("expected a typed refusal before close, got %v", err)
		}
		if rep.Code != CodeTooLarge || rep.NodeID != node.ID() {
			t.Fatalf("refusal = %+v, want code %q", rep, CodeTooLarge)
		}
	})

	t.Run("client-classification", func(t *testing.T) {
		c, err := NewClient(ClientConfig{Addrs: []string{addr}, PeriodMs: 50})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		bigSQL := "SELECT 1 FROM t WHERE x = '" + strings.Repeat("a", maxLineBytes) + "'"
		ns := c.nodes()[0]
		_, kind, err := c.executeOn(ns, 1, bigSQL, nil, time.Time{})
		if kind != attemptFatal || !errors.Is(err, ErrTooLarge) {
			t.Fatalf("oversized execute: kind=%v err=%v", kind, err)
		}
		if st := ns.breaker.snapshot(); st != breakerClosed {
			t.Fatalf("breaker %v after too-large refusal, want closed", st)
		}
		out := c.Run(2, bigSQL)
		if !errors.Is(out.Err, ErrTooLarge) {
			t.Fatalf("Run with oversized query: %v", out.Err)
		}
		if out.Retries != 0 {
			t.Fatalf("too-large failed after %d retries, want fast fail", out.Retries)
		}
	})
}

// TestFrameMetricsExposition: the per-version negotiation counters
// render as one qa_frame_negotiated_total family with a version label,
// alongside the stream counters.
func TestFrameMetricsExposition(t *testing.T) {
	node, c, sql, _ := fetchFederation(t, ClientConfig{})
	if _, out := c.Fetch(1, sql); out.Err != nil {
		t.Fatalf("Fetch: %v", out.Err)
	}
	srv := httptest.NewServer(node.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec := string(body)
	for _, want := range []string{
		`qa_frame_negotiated_total{node="` + node.ID() + `",version="1"} 1`,
		"qa_fetch_batches_total{",
		"qa_fetch_bytes_total{",
	} {
		if !strings.Contains(rec, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(rec, "frame_negotiated_v1") {
		t.Error("raw per-version counter name leaked into the exposition")
	}
}
