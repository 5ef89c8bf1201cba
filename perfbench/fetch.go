package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/engine"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/trace"
)

// fetch-scan: three gossip-joined nodes on the vectorized engine ship
// wide scans and GROUP BY aggregates back through the frame stream, in a
// closed loop under the greedy mechanism. The executor and the frame
// stream do the work; gossip and the QA-NT pricer do almost none.
const (
	fetchNodes   = 3
	fetchTables  = 6
	fetchRows    = 50_000
	fetchClients = 2
	fetchPeriod  = 250 // ms
	// fetchMsPerCU makes every node's simulated speed faster than the
	// engine, so the speed stretch never sleeps and execution time is the
	// engine's real work.
	fetchMsPerCU = 1e-9
	fetchSetups  = 3
	fetchWarmup  = 2 * time.Second
	// fetchDedup is the nodes' at-most-once window. The 60 s default
	// keeps every fetched result for retransmits: at this workload's rate
	// that held about 2 GB and took the process to 3.5 GB RSS.
	fetchDedup = 2 * time.Second
)

// fetchConsts are the selection constants: v is uniform in [0, 100), so
// a scan ships 20k-50k rows. Few constants keep the distinct queries few
// enough to check every one against a local engine after the run.
var fetchConsts = []int{0, 10, 20, 30, 40, 50, 60}

func fetchSQL(rng *rand.Rand) string {
	table := fmt.Sprintf("t%02d", rng.Intn(fetchTables))
	c := fetchConsts[rng.Intn(len(fetchConsts))]
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("SELECT id, k, v FROM %s WHERE v > %d", table, c)
	}
	return fmt.Sprintf("SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM %s WHERE v > %d GROUP BY grp", table, c)
}

type fetchSetup struct {
	fed    *federation
	client *cluster.Client
	index  map[string]int // node ID -> position
}

func fetchDataset(seed int64) (*cluster.Dataset, error) {
	return cluster.GenerateDataset(cluster.DatasetParams{
		Nodes: fetchNodes, Tables: fetchTables, RowsPerTable: fetchRows,
		MinCopies: 2, MaxCopies: 3,
	}, rand.New(rand.NewSource(seed)))
}

func setupFetch(seed int64, drv *driverStats, tracer *trace.Recorder) (*fetchSetup, error) {
	ds, err := fetchDataset(seed)
	if err != nil {
		return nil, err
	}
	cfgs := make([]cluster.NodeConfig, fetchNodes)
	index := make(map[string]int)
	for i := range cfgs {
		var d driver.Driver = engine.FromDB(ds.DBs[i])
		if drv != nil {
			d = timedDriver{Driver: d, stats: drv}
		}
		id := fmt.Sprintf("scan-%d", i)
		index[id] = i
		cfgs[i] = cluster.NodeConfig{
			Driver:        d,
			NodeID:        id,
			MsPerCostUnit: fetchMsPerCU,
			PeriodMs:      fetchPeriod,
			DedupWindow:   fetchDedup,
			Market:        market.DefaultConfig(1),
		}
	}
	fed, err := startFederation(cfgs)
	if err != nil {
		return nil, err
	}
	client, err := cluster.NewClient(cluster.ClientConfig{
		Addrs:       fed.addrs,
		Mechanism:   cluster.MechGreedy,
		PeriodMs:    fetchPeriod,
		Timeout:     30 * time.Second,
		Tracer:      tracer,
		ViewRefresh: 100 * time.Millisecond,
	})
	if err != nil {
		fed.close()
		return nil, err
	}
	if err := waitFor(30*time.Second, func() bool { return len(client.Members()) == fetchNodes }); err != nil {
		client.Close()
		fed.close()
		return nil, fmt.Errorf("client view: %w", err)
	}
	return &fetchSetup{fed: fed, client: client, index: index}, nil
}

func (s *fetchSetup) close() {
	s.client.Close()
	s.fed.close()
}

// fetched is what one completed query delivered.
type fetched struct {
	sql      string
	node     string
	rows     int
	checksum uint64
}

func runFetch(cfg runConfig) (*report, error) {
	rep := newReport()
	var drv *driverStats
	var tracer *trace.Recorder
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
		drv = &driverStats{spans: spans}
		tracer = trace.NewRecorder("client", 1<<18, nil)
	}
	var setup *fetchSetup
	var setups, converge []float64
	for i := 0; i < fetchSetups; i++ {
		if setup != nil {
			setup.close()
			// Collect the closed federation's data before the next set-up,
			// so peak memory holds one federation, not three.
			runtime.GC()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if setup, err = setupFetch(cfg.seed, drv, tracer); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		converge = append(converge, setup.fed.convergeS)
	}
	defer func() {
		if setup != nil {
			setup.close()
		}
	}()
	rep.set("setup_s", median(setups))
	rep.note("set-ups %v s; gossip convergence %v s; peak rss after set-up %.0f MB", fmtSecs(setups), fmtSecs(converge), maxRSSMB())

	log := newLoadLog()
	var mu sync.Mutex
	var results []fetched
	var launched int64
	var nextID int64
	begin := time.Now()
	measureStart := begin.Add(fetchWarmup)
	measureEnd := measureStart.Add(cfg.measure)
	var wg sync.WaitGroup
	for w := 0; w < fetchClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(w) + 1))
			for {
				sent := time.Now()
				if !sent.Before(measureEnd) {
					return
				}
				mu.Lock()
				nextID++
				id := nextID
				launched++
				mu.Unlock()
				sql := fetchSQL(rng)
				var sum uint64
				sp := spans.start(id, 0, "query")
				out := setup.client.FetchEach(id, sql, func(b *cluster.ColBlock) error {
					sum += blockChecksum(b)
					return nil
				})
				sp.end()
				log.record(id, !sent.Before(measureStart), out, float64(time.Since(sent))/float64(time.Millisecond))
				if out.Err == nil {
					mu.Lock()
					results = append(results, fetched{sql: sql, node: out.Node, rows: out.Rows, checksum: sum})
					mu.Unlock()
				}
			}
		}(w)
	}
	// The CPU, allocation and profile windows cover the measured span.
	time.Sleep(time.Until(measureStart))
	prof, err := startProfile(cfg.trace)
	if err != nil {
		return nil, err
	}
	if drv != nil {
		drv.reset()
	}
	cpu0, rt0 := cpuTime(), readRuntime()
	time.Sleep(time.Until(measureEnd))
	cpu := cpuTime() - cpu0
	rt := readRuntime().sub(rt0)
	if cfg.trace {
		if err := prof.finish(rep); err != nil {
			return nil, err
		}
	}
	wg.Wait()
	// Peak memory is the program's: the checks below regenerate the
	// dataset and would add their own.
	rep.setRSS()

	log.reportEndToEnd(rep, measureStart, cpu)
	rep.note("closed loop: %d clients, %d queries, %.1f s warm-up", fetchClients, launched, fetchWarmup.Seconds())
	log.checkOutcomes(rep, launched)
	log.mu.Lock()
	done := log.all[completed]
	log.mu.Unlock()
	executed := setup.fed.executed()
	rep.check(int64(executed) == done, "nodes executed %d queries, client completed %d", executed, done)
	if cfg.trace {
		log.reportClient(rep, setup.client, measureStart)
		ar, _, _ := setup.fed.acceptRatio()
		rep.set("market.accept_ratio", ar)
		rep.set("membership.converge_s", median(converge))
		rt.report(rep, log.measured[completed])
		drv.report(rep)
		spans.adoptClientSpans(tracer.All(), queryRoots(spans))
		if err := finishSpans(rep, spans, cfg.spansOut); err != nil {
			return nil, err
		}
	}
	index := setup.index
	setup.close()
	setup = nil
	runtime.GC()
	if err := checkFetched(rep, cfg.seed, index, results); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkFetched runs each distinct (node, query) pair on a local engine
// copy of that node's data, regenerated from the seed, and compares row
// count and checksum with every delivery of it.
func checkFetched(rep *report, seed int64, index map[string]int, results []fetched) error {
	ds, err := fetchDataset(seed)
	if err != nil {
		return err
	}
	local := make(map[int]*engine.DB)
	type key struct {
		node int
		sql  string
	}
	want := make(map[key]fetched)
	bad := 0
	for _, r := range results {
		i, ok := index[r.node]
		if !ok {
			rep.check(false, "query ran on unknown node %q", r.node)
			continue
		}
		k := key{i, r.sql}
		ref, ok := want[k]
		if !ok {
			db := local[i]
			if db == nil {
				db = engine.FromDB(ds.DBs[i])
				local[i] = db
			}
			b, err := db.Query(r.sql)
			if err != nil {
				rep.check(false, "local %q: %v", r.sql, err)
				continue
			}
			ref = fetched{rows: b.Rows, checksum: blockChecksum(b)}
			want[k] = ref
		}
		if r.rows != ref.rows || r.checksum != ref.checksum {
			bad++
			if bad <= 3 {
				rep.check(false, "%s on %s: %d rows checksum %x, local engine %d rows checksum %x",
					r.sql, r.node, r.rows, r.checksum, ref.rows, ref.checksum)
			}
		}
	}
	rep.check(bad == 0, "%d of %d results differ from the local engine", bad, len(results))
	rep.note("checked %d results against %d local executions", len(results), len(want))
	return nil
}

// blockChecksum sums a hash of every row, so it does not depend on how
// the rows were split into blocks or ordered.
func blockChecksum(b *driver.Block) uint64 {
	hashes := make([]uint64, b.Rows)
	for i := range hashes {
		hashes[i] = 14695981039346656037
	}
	for _, col := range b.Cols {
		var ni, nf, ns, nb int
		for r, k := range col.Kinds {
			var x uint64
			switch k {
			case driver.KindByteInt:
				x = uint64(col.Ints[ni])
				ni++
			case driver.KindByteFloat:
				x = math.Float64bits(col.Floats[nf])
				nf++
			case driver.KindByteText:
				for _, c := range []byte(col.Texts[ns]) {
					x = x*31 + uint64(c)
				}
				ns++
			case driver.KindByteBool:
				if col.Bools[nb] {
					x = 1
				}
				nb++
			}
			h := hashes[r]
			h ^= uint64(k)
			h *= 1099511628211
			h ^= x
			h *= 1099511628211
			hashes[r] = h
		}
	}
	var sum uint64
	for _, h := range hashes {
		sum += h
	}
	return sum
}
