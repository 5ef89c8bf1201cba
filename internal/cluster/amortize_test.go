package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/catalog"
)

func TestClassKey(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT v FROM t03 WHERE v > 17", "SELECT v FROM t03 WHERE v > #"},
		{"SELECT v FROM t03 WHERE v > 42", "SELECT v FROM t03 WHERE v > #"},
		{"SELECT a FROM v12 WHERE b < 3.25 GROUP BY a", "SELECT a FROM v12 WHERE b < # GROUP BY a"},
		{"SELECT * FROM t00", "SELECT * FROM t00"},
		{"7 + x2", "# + x2"},
	}
	for _, tc := range cases {
		if got := classKey(tc.sql); got != tc.want {
			t.Errorf("classKey(%q) = %q, want %q", tc.sql, got, tc.want)
		}
	}
	if classKey("SELECT v FROM t03 WHERE v > 17") != classKey("SELECT v FROM t03 WHERE v > 990") {
		t.Error("same template, different literals landed in different classes")
	}
	if classKey("SELECT v FROM t03") == classKey("SELECT v FROM t04") {
		t.Error("different relations landed in the same class")
	}
}

func TestRelationsIn(t *testing.T) {
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT a FROM t03", []string{"t03"}},
		{"SELECT a FROM t03 WHERE a > 1", []string{"t03"}},
		{"SELECT a FROM t1, t2 WHERE t1.a = t2.a", []string{"t1", "t2"}},
		{"SELECT a FROM t1 x, t2 y WHERE x.a = y.a", []string{"t1", "t2"}},
		{"SELECT a FROM t1 JOIN t2 ON t1.a = t2.a", []string{"t1", "t2"}},
		{"SELECT a FROM t1 GROUP BY a", []string{"t1"}},
		// Shapes the extractor must refuse to guess about.
		{"SELECT a FROM (SELECT a FROM t1) s", nil},
		{"SELECT 1", nil},
	}
	for _, tc := range cases {
		got := relationsIn(tc.sql)
		if len(got) != len(tc.want) {
			t.Errorf("relationsIn(%q) = %v, want %v", tc.sql, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("relationsIn(%q) = %v, want %v", tc.sql, got, tc.want)
				break
			}
		}
	}
}

// scriptedServer is a minimal wire-speaking fake node for wire-level
// tests: it records every request line verbatim and answers from a
// tiny script.
type scriptedServer struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	lines [][]byte
	// overloaded makes negotiate replies the typed envelope refusal
	// handleWork sends at admission: code overload, its message, and
	// no proposal or batch array.
	overloaded bool

	execCode string // typed code execute replies carry ("" accepts)
}

func startScriptedServer(t *testing.T, execCode string) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{t: t, ln: ln, execCode: execCode}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *scriptedServer) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return
		}
		s.mu.Lock()
		s.lines = append(s.lines, bytes.TrimRight(line, "\n"))
		overloaded := s.overloaded
		s.mu.Unlock()
		var req request
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		rep := reply{ID: req.ID, NodeID: "scripted"}
		switch req.Op {
		case "negotiate":
			if overloaded {
				rep.Code = CodeOverload
				rep.Err = msgOverloaded
				break
			}
			rep.Negotiate = &negotiateReply{Feasible: true, Offer: true, EstimateMs: 5}
			for _, bq := range req.Batch {
				rep.Batch = append(rep.Batch, batchProposal{
					QueryID:   bq.QueryID,
					Negotiate: &negotiateReply{Feasible: true, Offer: true, EstimateMs: 5},
				})
			}
		case "execute":
			if s.execCode != "" {
				rep.Code = s.execCode
				rep.Err = "scripted refusal"
			} else {
				rep.Execute = &executeReply{Accepted: true, Rows: 1, ExecMs: 1}
			}
		default:
			rep.Err = "scripted server: unknown op " + req.Op
		}
		if err := writeMsg(w, &rep); err != nil {
			return
		}
	}
}

// setOverloaded switches negotiate replies between the overload
// refusal and proposals.
func (s *scriptedServer) setOverloaded(on bool) {
	s.mu.Lock()
	s.overloaded = on
	s.mu.Unlock()
}

// requestLines snapshots the recorded raw request lines.
func (s *scriptedServer) requestLines() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(s.lines))
	copy(out, s.lines)
	return out
}

// TestSingleQueryWindowIsByteIdentical proves the new client's batched
// path degrades to the legacy wire format with nothing to coalesce: the
// request a window-of-one sends is byte-for-byte the request an
// unbatched client sends for the same query.
func TestSingleQueryWindowIsByteIdentical(t *testing.T) {
	sql := "SELECT a FROM t1 WHERE a > 7"
	srv := startScriptedServer(t, "")
	legacy, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, Transport: TransportFresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := legacy.negotiateAll(sql, nil, time.Time{}); err != nil {
		t.Fatalf("legacy negotiate: %v", err)
	}
	batched, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, Transport: TransportFresh,
		BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := batched.batches.negotiate(1, sql, classKey(sql), nil, time.Time{}); err != nil {
		t.Fatalf("batched negotiate: %v", err)
	}
	lines := srv.requestLines()
	if len(lines) != 2 {
		t.Fatalf("recorded %d request lines, want 2", len(lines))
	}
	if !bytes.Equal(lines[0], lines[1]) {
		t.Errorf("single-query window not byte-identical to legacy negotiate:\n legacy: %s\nbatched: %s", lines[0], lines[1])
	}
}

// TestBatchedOverloadRefusesEveryRider replays the admission refusal
// handleWork gives a batched CFP — a typed overload envelope with no
// batch array — and checks every query of the window gets that
// overload from the node, and that the refusal changes nothing about
// how the node is asked later: every window costs one negotiate RPC.
func TestBatchedOverloadRefusesEveryRider(t *testing.T) {
	srv := startScriptedServer(t, "")
	c, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, Transport: TransportFresh,
		// The window seals as soon as its second query arrives; the
		// long timer only guarantees both land in the same window.
		BatchWindow: 10 * time.Second, BatchLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	window := func(sqlA, sqlB string) []proposals {
		t.Helper()
		var wg sync.WaitGroup
		results := make([]proposals, 2)
		errs := make([]error, 2)
		for i, sql := range []string{sqlA, sqlB} {
			wg.Add(1)
			go func(i int, sql string) {
				defer wg.Done()
				results[i], _, errs[i] = c.batches.negotiate(int64(i), sql, classKey(sql), nil, time.Time{})
			}(i, sql)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("window query %d: %v", i, err)
			}
		}
		return results
	}

	srv.setOverloaded(true)
	for i, pr := range window("SELECT a FROM t1 WHERE a > 1", "SELECT a FROM t1 WHERE a > 2") {
		if len(pr.ranked) != 0 || !errors.Is(pr.refusalError(), ErrOverloaded) {
			t.Errorf("overloaded window query %d: %d candidates, refusal %v; want none and ErrOverloaded",
				i, len(pr.ranked), pr.refusalError())
		}
	}
	if got := c.RPCCounts()["negotiate"]; got != 1 {
		t.Errorf("overloaded window cost %d negotiate RPCs, want 1", got)
	}

	srv.setOverloaded(false)
	before := c.RPCCounts()["negotiate"]
	for i, pr := range window("SELECT a FROM t1 WHERE a > 3", "SELECT a FROM t1 WHERE a > 4") {
		if len(pr.ranked) != 1 {
			t.Errorf("window query %d got %d candidates after the overload cleared, want 1", i, len(pr.ranked))
		}
	}
	if got := c.RPCCounts()["negotiate"] - before; got != 1 {
		t.Errorf("window after an overload cost %d negotiate RPCs, want 1", got)
	}
	lines := srv.requestLines()
	if last := lines[len(lines)-1]; !bytes.Contains(last, []byte(`"batch"`)) {
		t.Errorf("window after an overload was not batched: %s", last)
	}
}

// rawExchange sends one raw request line to addr and returns the raw
// reply line — the old-client view of a new server.
func rawExchange(t *testing.T, addr string, req any) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	w := bufio.NewWriter(conn)
	if err := writeMsg(w, req); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	return bytes.TrimRight(line, "\n")
}

// TestOldClientNewServerUnchanged proves a batch-aware server answers
// an unbatched negotiate with the legacy reply shape: no batch key
// leaks into the envelope an old client will decode.
func TestOldClientNewServerUnchanged(t *testing.T) {
	ds, _, addrs := startTestFederation(t, []float64{1})
	rng := rand.New(rand.NewSource(11))
	templates, err := ds.GenerateTemplates(1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	sql := templates[0].Instantiate(rng)
	raw := rawExchange(t, addrs[0], &request{Op: "negotiate", SQL: sql, Mechanism: MechGreedy})
	if bytes.Contains(raw, []byte(`"batch"`)) {
		t.Fatalf("unbatched negotiate reply leaked a batch field: %s", raw)
	}
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Negotiate == nil || !rep.Negotiate.Feasible {
		t.Fatalf("unbatched negotiate broken on batch-aware server: %s", raw)
	}
	// And the same server solves a batched CFP positionally.
	var rep2 reply
	raw2 := rawExchange(t, addrs[0], &request{
		Op: "negotiate", SQL: sql, Mechanism: MechGreedy,
		Batch: []batchQuery{{QueryID: 7, SQL: sql}, {QueryID: 8, SQL: "SELECT nope FROM missing"}},
	})
	if err := json.Unmarshal(raw2, &rep2); err != nil {
		t.Fatal(err)
	}
	if len(rep2.Batch) != 2 {
		t.Fatalf("batched negotiate answered %d of 2 batch queries: %s", len(rep2.Batch), raw2)
	}
	if rep2.Batch[0].Negotiate == nil || !rep2.Batch[0].Negotiate.Feasible {
		t.Errorf("batch query 0 got no proposal: %s", raw2)
	}
	if rep2.Batch[1].Negotiate != nil && rep2.Batch[1].Negotiate.Feasible {
		t.Errorf("infeasible batch query reported feasible: %s", raw2)
	}
}

// seedBidClient builds a cache-enabled client against addr (no RPCs
// are made) and returns it with the seed node's state.
func seedBidClient(t *testing.T, addr string, ttl time.Duration) (*Client, *nodeState) {
	t.Helper()
	c, err := NewClient(ClientConfig{Addrs: []string{addr}, BidCacheTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ns := c.lookup(addr)
	if ns == nil {
		t.Fatal("seed node missing from view")
	}
	return c, ns
}

func TestBidCacheEpochBumpInvalidates(t *testing.T) {
	c, ns := seedBidClient(t, "127.0.0.1:9", time.Minute)
	ns.mu.Lock()
	ns.epoch = 3
	ns.mu.Unlock()
	class := classKey("SELECT a FROM t1 WHERE a > 5")
	c.bids.put(class, []*nodeState{ns})
	if got := c.cachedLadder(class); len(got) != 1 || got[0] != ns {
		t.Fatalf("fresh entry not returned: %v", got)
	}
	// The node gossips a new market period: the stamp no longer holds.
	ns.mu.Lock()
	ns.epoch = 4
	ns.mu.Unlock()
	if got := c.cachedLadder(class); got != nil {
		t.Fatalf("epoch bump did not invalidate: %v", got)
	}
	if n := c.health.Counter("bid_cache_invalidations_total"); n != 1 {
		t.Errorf("invalidations = %d, want 1", n)
	}
	// The stale entry is gone, not just hidden: the next lookup is a
	// plain miss.
	c.bids.mu.Lock()
	left := len(c.bids.entries)
	c.bids.mu.Unlock()
	if left != 0 {
		t.Errorf("%d stale entries survived invalidation", left)
	}
}

func TestBidCacheMemberEvictionInvalidates(t *testing.T) {
	c, ns := seedBidClient(t, "127.0.0.1:9", time.Minute)
	class := classKey("SELECT a FROM t1")
	c.bids.put(class, []*nodeState{ns})
	c.viewMu.Lock()
	c.pruneLocked(ns.nodeID(), 1)
	c.viewMu.Unlock()
	if got := c.cachedLadder(class); got != nil {
		t.Fatalf("member eviction did not invalidate: %v", got)
	}
	if n := c.health.Counter("bid_cache_invalidations_total"); n != 1 {
		t.Errorf("invalidations = %d, want 1", n)
	}
}

func TestBidCacheTTLExpires(t *testing.T) {
	c, ns := seedBidClient(t, "127.0.0.1:9", time.Millisecond)
	class := classKey("SELECT a FROM t1")
	c.bids.put(class, []*nodeState{ns})
	time.Sleep(5 * time.Millisecond)
	if got := c.cachedLadder(class); got != nil {
		t.Fatalf("TTL did not expire the entry: %v", got)
	}
}

// TestBidCacheTypedRefusalsInvalidate drives a cached admission into
// each typed refusal and checks the cached ladder dies: the refusal
// says the market moved under the cache.
func TestBidCacheTypedRefusalsInvalidate(t *testing.T) {
	for _, code := range []string{CodeOverload, CodeExpired, CodeDraining} {
		t.Run(code, func(t *testing.T) {
			srv := startScriptedServer(t, code)
			c, err := NewClient(ClientConfig{
				Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy,
				Transport: TransportFresh, BidCacheTTL: time.Minute,
				PeriodMs: 1, MaxRetries: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sql := "SELECT a FROM t1 WHERE a > 5"
			class := classKey(sql)
			// Seed the cache the way a successful round would.
			c.bids.put(class, []*nodeState{c.lookup(srv.ln.Addr().String())})
			out := c.Run(1, sql)
			if out.Err == nil {
				t.Fatal("refused query reported success")
			}
			c.bids.mu.Lock()
			_, alive := c.bids.entries[class]
			c.bids.mu.Unlock()
			if alive {
				t.Fatalf("cached ladder survived a typed %s refusal", code)
			}
			if n := c.health.Counter("bid_cache_invalidations_total"); n == 0 {
				t.Error("no invalidation counted")
			}
		})
	}
}

// TestBidCacheHitSkipsNegotiate is the amortization property end to
// end: with a valid cached ladder, a follow-up query of the class costs
// zero negotiate RPCs.
func TestBidCacheHitSkipsNegotiate(t *testing.T) {
	srv := startScriptedServer(t, "")
	c, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy,
		Transport: TransportFresh, BidCacheTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if out := c.Run(1, "SELECT a FROM t1 WHERE a > 5"); out.Err != nil {
		t.Fatalf("first run: %v", out.Err)
	}
	afterFirst := c.RPCCounts()["negotiate"]
	if afterFirst == 0 {
		t.Fatal("first run negotiated nothing")
	}
	// Same class, different literal: must ride the cached ladder.
	if out := c.Run(2, "SELECT a FROM t1 WHERE a > 99"); out.Err != nil {
		t.Fatalf("second run: %v", out.Err)
	}
	if got := c.RPCCounts()["negotiate"]; got != afterFirst {
		t.Errorf("cached admission still negotiated: %d -> %d RPCs", afterFirst, got)
	}
	if hits := c.health.Counter("bid_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if execs := c.RPCCounts()["execute"]; execs != 2 {
		t.Errorf("execute RPCs = %d, want 2", execs)
	}
}

// TestBatchedWindowSharesOneRPC proves the tentpole arithmetic on the
// wire: a window of three same-class queries against a batch-aware
// node costs one negotiate RPC, not three.
func TestBatchedWindowSharesOneRPC(t *testing.T) {
	srv := startScriptedServer(t, "")
	c, err := NewClient(ClientConfig{
		Addrs: []string{srv.ln.Addr().String()}, Mechanism: MechGreedy, Transport: TransportFresh,
		BatchWindow: 300 * time.Millisecond, BatchLimit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := "SELECT a FROM t1 WHERE a > 5"
			_, _, errs[i] = c.batches.negotiate(int64(i), sql, classKey(sql), nil, time.Time{})
		}(i)
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := c.RPCCounts()["negotiate"]; got != 1 {
		t.Errorf("window of 3 cost %d negotiate RPCs, want 1", got)
	}
	if n := c.health.Counter("batch_coalesced_total"); n != 2 {
		t.Errorf("coalesced = %d, want 2", n)
	}
	lines := srv.requestLines()
	if len(lines) != 1 || !bytes.Contains(lines[0], []byte(`"batch"`)) {
		t.Errorf("expected one batched request, got %d: %s", len(lines), lines)
	}
}

// TestShardProbeSkipsInfeasibleNodes checks the probe set honors
// gossiped relation filters: a member whose filter excludes the query's
// relation is skipped, members without filters are kept, and an
// all-excluded round falls back to the full view.
func TestShardProbeSkipsInfeasibleNodes(t *testing.T) {
	c, err := NewClient(ClientConfig{Addrs: []string{"127.0.0.1:7", "127.0.0.1:8", "127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setFilter := func(addr string, rels []string) {
		ns := c.lookup(addr)
		ns.mu.Lock()
		ns.filter = catalog.NewRelationFilter(rels)
		ns.mu.Unlock()
	}
	setFilter("127.0.0.1:7", []string{"t1", "t2"})
	setFilter("127.0.0.1:8", []string{"v9"})
	// 127.0.0.1:9 advertises no filter: always probed.
	got := c.probeSet("SELECT a FROM t1 WHERE a > 5")
	if len(got) != 2 {
		t.Fatalf("probe set size = %d, want 2 (holder + unfiltered)", len(got))
	}
	for _, ns := range got {
		if ns.address() == "127.0.0.1:8" {
			t.Error("provably infeasible node probed")
		}
	}
	if n := c.health.Counter("shard_skips_total"); n != 1 {
		t.Errorf("shard skips = %d, want 1", n)
	}
	// Unparseable shape: full fan-out.
	if got := c.probeSet("SELECT a FROM (SELECT a FROM t1) s"); len(got) != 3 {
		t.Errorf("unparseable query probe set = %d, want full view of 3", len(got))
	}
	// All excluded: fall back to the full view rather than starving.
	setFilter("127.0.0.1:9", []string{"t9"})
	if got := c.probeSet("SELECT a FROM zz"); len(got) != 3 {
		t.Errorf("all-excluded probe set = %d, want full view of 3", len(got))
	}
	// Probing off: full view regardless of filters.
	c.cfg.NoShardProbe = true
	if got := c.probeSet("SELECT a FROM t1"); len(got) != 3 {
		t.Errorf("NoShardProbe probe set = %d, want 3", len(got))
	}
}
