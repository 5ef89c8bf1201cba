package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/experiments"
)

func TestPercentilesCountRefusedQueriesAsInfinite(t *testing.T) {
	var l latencies
	for i := 1; i <= 97; i++ {
		l.add(float64(i))
	}
	for i := 0; i < 3; i++ {
		l.refuse()
	}
	p50, tail, n, beyond := l.summary()
	if n != 100 || p50 != 50 {
		t.Fatalf("n %d p50 %v, want 100 and 50", n, p50)
	}
	// 95 finite samples are at or below 95; the refusals lie beyond it.
	if tail != 95 || beyond != 5 {
		t.Fatalf("p95 %v with %d beyond, want 95 with 5", tail, beyond)
	}
	for i := 0; i < 3; i++ {
		l.refuse()
	}
	// Six refusals in 103: the nearest-rank p95 (rank 98) is now one.
	if _, tail, _, _ = l.summary(); !math.IsInf(tail, 1) {
		t.Fatalf("p95 %v with 6%% refused, want +Inf", tail)
	}
	if finite(tail) != math.MaxFloat64 {
		t.Fatalf("finite(+Inf) = %v", finite(tail))
	}

	// Refusals move the median too: half the queries refused puts it at
	// the slowest completed query, not the middle of the completed ones.
	var m latencies
	for i := 1; i <= 10; i++ {
		m.add(float64(i))
		m.refuse()
	}
	if p50, _, _, _ := m.summary(); p50 != 10 {
		t.Fatalf("p50 %v, want 10", p50)
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	spans := []span{
		{Query: 1, ID: 1, Name: "query", Start: 0, End: 100},
		// Overlapping children cover 10-50 once, not twice.
		{Query: 1, ID: 2, Parent: 1, Name: "negotiate", Start: 10, End: 30},
		{Query: 1, ID: 3, Parent: 1, Name: "negotiate", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{Query: 1, ID: 4, Parent: 1, Name: "execute", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{Query: 1, ID: 5, Parent: 2, Name: "rpc", Start: 12, End: 18},
		{Query: 2, ID: 6, Name: "query", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"query":     {Count: 2, TotalNs: 110, SelfNs: 50 + 10},
		"negotiate": {Count: 2, TotalNs: 50, SelfNs: 14 + 30},
		"execute":   {Count: 1, TotalNs: 30, SelfNs: 30},
		"rpc":       {Count: 1, TotalNs: 6, SelfNs: 6},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestCPUAttributionOutermostEntryPointWins(t *testing.T) {
	const c = clusterPkg
	const internal = "github.com/qamarket/qamarket/internal/"
	samples := []cpuSample{
		// JSON decoding of a gossip reply: transport under gossip.
		{ns: 40, stack: []string{"encoding/json.(*decodeState).object", c + "readMsg", c + "freshRPCCounted", c + "(*Node).gossipWith", "runtime.goexit"}},
		// A server decoding a request: transport.
		{ns: 10, stack: []string{"encoding/json.Unmarshal", c + "readMsg", c + "(*Node).serveConn", "runtime.goexit"}},
		// The executor under the node's job loop.
		{ns: 25, stack: []string{internal + "sqldb.Value.GroupKey", internal + "engine.(*DB).Select", c + "(*Node).runJob", c + "(*Node).execLoop"}},
		// Pricing that plans through sqldb is market work: the pricer
		// is the outer entry point.
		{ns: 5, stack: []string{internal + "sqldb.PlanSelectOn", c + "(*pricer).quote", c + "(*Node).negotiate"}},
		{ns: 10, stack: []string{internal + "market.(*Agent).BeginPeriod", c + "(*pricer).tick", c + "(*Node).periodLoop"}},
		{ns: 6, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{ns: 4, stack: []string{"runtime.mallocgc", "main.main"}},
	}
	got := attribute(samples)
	want := map[string]float64{"gossip": 0.4, "transport": 0.1, "executor": 0.25, "market": 0.15, "gc": 0.06, "other": 0.04}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", name, got[name], w)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		x++
	}
	return x
}

func TestParseCPUProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if !found || total <= 0 {
		t.Fatalf("%d samples, %d ns, spin found %v", len(samples), total, found)
	}
}

func TestBlockChecksumIgnoresBatchingAndOrder(t *testing.T) {
	whole := &driver.Block{Columns: []string{"a", "b"}, Rows: 3, Cols: []driver.Col{
		{Kinds: []byte("ini"), Ints: []int64{1, 3}},
		{Kinds: []byte("fsf"), Floats: []float64{0.5, 2.5}, Texts: []string{"x"}},
	}}
	first := &driver.Block{Columns: []string{"a", "b"}, Rows: 1, Cols: []driver.Col{
		{Kinds: []byte("n")},
		{Kinds: []byte("s"), Texts: []string{"x"}},
	}}
	rest := &driver.Block{Columns: []string{"a", "b"}, Rows: 2, Cols: []driver.Col{
		{Kinds: []byte("ii"), Ints: []int64{3, 1}},
		{Kinds: []byte("ff"), Floats: []float64{2.5, 0.5}},
	}}
	if a, b := blockChecksum(whole), blockChecksum(first)+blockChecksum(rest); a != b {
		t.Fatalf("whole %x, split and reordered %x", a, b)
	}
	changed := &driver.Block{Columns: []string{"a", "b"}, Rows: 1, Cols: []driver.Col{
		{Kinds: []byte("n")},
		{Kinds: []byte("s"), Texts: []string{"y"}},
	}}
	if blockChecksum(first) == blockChecksum(changed) {
		t.Fatal("checksum ignores a changed value")
	}
}

// The benchmark replays Figure 6 through the simulator's public API so
// it can wrap the mechanisms; the replay must be the figure.
func TestZipfReplayMatchesFigure6(t *testing.T) {
	s := experiments.Quick()
	s.Parallel = 1
	fig, err := experiments.Figure6(s)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildZipfInputs(s)
	if err != nil {
		t.Fatal(err)
	}
	for g, p := range fig.Points {
		var means [2]float64
		for m := range zipfMechs {
			if means[m], _, err = simulate(in, s, zipfRun{g, m}, newZipfMech(zipfMechs[m])); err != nil {
				t.Fatal(err)
			}
		}
		if got := means[1] / means[0]; got != p.Y {
			t.Errorf("gap %g: replay %v, figure %v", p.X, got, p.Y)
		}
	}
}

func TestZipfReferenceMatchesFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 6 at the paper's scale")
	}
	s := experiments.Paper()
	fig, err := experiments.Figure6(s)
	if err != nil {
		t.Fatal(err)
	}
	for g, p := range fig.Points {
		if p.Y != zipfReference[g] {
			t.Errorf("gap %g: figure %v, recorded %v", p.X, p.Y, zipfReference[g])
		}
	}
}
