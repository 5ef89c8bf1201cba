package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/qamarket/qamarket/internal/alloc"
	"github.com/qamarket/qamarket/internal/catalog"
	"github.com/qamarket/qamarket/internal/costmodel"
	"github.com/qamarket/qamarket/internal/experiments"
	"github.com/qamarket/qamarket/internal/market"
	"github.com/qamarket/qamarket/internal/sim"
	"github.com/qamarket/qamarket/internal/workload"
)

// paper-zipf replays Figure 6 at the paper's Table 3 scale: 100 nodes,
// 1,000 relations, 100 Zipf classes, up to 49 joins, 10,000 queries at
// each of the seven inter-arrival gaps, each run under QA-NT and Greedy
// one at a time. The market supply solve, the allocation mechanisms and
// the event engine do all the work; there is no network.
//
// The fixture is the paper's own (figure seed 1) on every run: other
// figure seeds change the simulator's work by up to 1.8x, which would
// make run-to-run spread measure the input instead of the code. The
// benchmark seed orders the 14 simulations instead. A request here is
// one Figure 6 point, so latency is the wall time of its two
// 10,000-query simulations.

// zipfSetups is how many times a run builds the fixture; setup_s is the
// median.
const zipfSetups = 5

var zipfMechs = []string{"qa-nt", "greedy"}

// zipfInputs is one Figure 6 fixture and its seven arrival streams,
// built exactly as experiments.Figure6 builds them.
type zipfInputs struct {
	cat      *catalog.Catalog
	ts       []costmodel.Template
	arrivals [][]workload.Arrival
}

func buildZipfInputs(s experiments.Scale) (*zipfInputs, error) {
	rng := rand.New(rand.NewSource(s.Seed + 600))
	p := catalog.Table3()
	p.Nodes = s.Nodes
	p.Relations = s.Relations
	p.HashJoinNodes = s.Nodes * 95 / 100
	cat, err := catalog.Generate(p, rng)
	if err != nil {
		return nil, err
	}
	tp := workload.Table3Templates()
	tp.Classes = s.Classes
	tp.MaxJoins = s.MaxJoins
	ts, err := workload.GenerateTemplates(cat, costmodel.New(cat), tp, rng)
	if err != nil {
		return nil, err
	}
	in := &zipfInputs{cat: cat, ts: ts}
	for i, gap := range experiments.Figure6Gaps {
		z := workload.Zipf{
			Classes: s.Classes, NumQueries: s.Queries, A: 1,
			MeanGapMs: gap, MaxGapMs: 30000, OriginCount: s.Nodes,
		}
		as, err := z.Generate(rand.New(rand.NewSource(s.Seed + 700 + int64(i))))
		if err != nil {
			return nil, fmt.Errorf("gap %g: %w", gap, err)
		}
		in.arrivals = append(in.arrivals, as)
	}
	return in, nil
}

func newZipfMech(name string) alloc.Mechanism {
	if name == "qa-nt" {
		return alloc.NewQANT(market.DefaultConfig(1))
	}
	return alloc.NewGreedy(nil, 0)
}

// zipfRun is one simulation: a gap index and a mechanism index.
type zipfRun struct{ gap, mech int }

// zipfOrder lists the 14 simulations in the order the seed picks.
func zipfOrder(seed int64) []zipfRun {
	var runs []zipfRun
	for g := range experiments.Figure6Gaps {
		for m := range zipfMechs {
			runs = append(runs, zipfRun{g, m})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return runs
}

// simulate runs one simulation and returns its mean simulated response
// time and how many queries it dropped.
func simulate(in *zipfInputs, s experiments.Scale, r zipfRun, mech alloc.Mechanism) (meanMs float64, dropped int, err error) {
	fed, err := sim.New(sim.Config{Catalog: in.cat, Templates: in.ts, PeriodMs: s.PeriodMs}, mech)
	if err != nil {
		return 0, 0, err
	}
	col, err := fed.Run(in.arrivals[r.gap])
	if err != nil {
		return 0, 0, err
	}
	return col.Summarize().MeanRespMs, col.Dropped(), nil
}

func runZipf(cfg runConfig) (*report, error) {
	scale := experiments.Paper()
	scale.Parallel = 1
	rep := newReport()
	var in *zipfInputs
	var setups []float64
	for i := 0; i < zipfSetups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if in, err = buildZipfInputs(scale); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))
	rep.note("%d set-ups %v s; peak rss after set-up %.1f MB", zipfSetups, fmtSecs(setups), maxRSSMB())

	var stats *mechStats
	if cfg.trace {
		stats = &mechStats{spans: newSpanLog()}
	}
	prof, err := startProfile(cfg.trace)
	if err != nil {
		return nil, err
	}
	order := zipfOrder(cfg.seed)
	var runs, queries, dropped, simNs int64
	// secs[r] holds each simulation's wall times; means[r] its mean
	// simulated response time, which must not change between repeats.
	secs := make(map[zipfRun][]float64)
	means := make(map[zipfRun]float64)
	cpu0, rt0 := cpuTime(), readRuntime()
	start := time.Now()
	deadline := start.Add(cfg.measure)
	// Whole passes through the 14 simulations until the window closes;
	// the first pass always completes so every ratio is checked.
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, r := range order {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			mech := newZipfMech(zipfMechs[r.mech])
			var runSpan openSpan
			if stats != nil {
				runSpan = stats.spans.start(runs+1, 0, "sim.run")
				stats.run, stats.runSpan = runs+1, runSpan.id()
				mech = wrapMech(mech, stats)
			}
			t0 := time.Now()
			mean, drops, err := simulate(in, scale, r, mech)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			runSpan.end()
			runs++
			simNs += int64(d)
			queries += int64(len(in.arrivals[r.gap]))
			dropped += int64(drops)
			secs[r] = append(secs[r], d.Seconds())
			if prev, ok := means[r]; ok {
				rep.check(prev == mean, "gap %g ms %s: mean response %v ms, earlier pass %v ms",
					experiments.Figure6Gaps[r.gap], zipfMechs[r.mech], mean, prev)
			}
			means[r] = mean
		}
	}
	elapsed := time.Since(start)
	rep.setRSS()
	cpu := cpuTime() - cpu0
	rt := readRuntime().sub(rt0)

	// Each simulation's time is the median of its repeats, so a pass the
	// deadline cut short does not change the mix. One sweep is their sum;
	// a request is one Figure 6 point, QA-NT and Greedy at one gap.
	var lat latencies
	sweep := 0.0
	for g := range experiments.Figure6Gaps {
		point := 0.0
		for m := range zipfMechs {
			point += median(secs[zipfRun{g, m}])
		}
		sweep += point
		lat.add(point * 1000)
	}
	p50, tail, n, beyond := lat.summary()
	// attempted counts simulations; none failed if the run got here.
	rep.attempted, rep.failed = runs, 0
	rep.set("latency_p50_ms", p50)
	rep.set("latency_p95_ms", tail)
	rep.set("throughput_qps", float64(len(order)*scale.Queries)/sweep)
	rep.set("cpu_ms_per_query", ratio(float64(cpu)/float64(time.Millisecond), float64(queries)))
	rep.note("latency over %d figure points, each simulation the median of its repeats (%d beyond p95); %s", n, beyond, lat.spread())
	rep.note("sim_queries_per_s %.6g 1/s (%d simulations in %.2f s; one sweep %.3f s)",
		float64(len(order)*scale.Queries)/sweep, runs, elapsed.Seconds(), sweep)
	rep.note("simulated queries dropped at the horizon: %d of %d (failed_share %.6g)", dropped, queries, ratio(float64(dropped), float64(queries)))

	var ys []string
	for g, gap := range experiments.Figure6Gaps {
		got := means[zipfRun{g, 1}] / means[zipfRun{g, 0}]
		rep.check(got == zipfReference[g], "gap %g ms: greedy/qa-nt %v, reference %v", gap, got, zipfReference[g])
		ys = append(ys, fmt.Sprintf("%.3f", got))
	}
	rep.note("figure 6 greedy/qa-nt by gap %v: %v", experiments.Figure6Gaps, ys)

	if cfg.trace {
		// Period and simulator totals are per sweep of 14 simulations.
		perSweep := float64(len(order)) / float64(runs)
		rep.set("alloc.assign_ns_per_query", ratio(float64(stats.assignNs), float64(queries)))
		rep.set("alloc.period_start_ms_total", float64(stats.startNs)/1e6*perSweep)
		rep.set("alloc.period_end_ms_total", float64(stats.endNs)/1e6*perSweep)
		rep.set("sim.self_s", float64(simNs-stats.assignNs-stats.startNs-stats.endNs)/1e9*perSweep)
		rep.note("alloc: %d assigns (%.2f per query)", stats.assigns, ratio(float64(stats.assigns), float64(queries)))
		rt.report(rep, queries)
		if err := prof.finish(rep); err != nil {
			return nil, err
		}
		if err := finishSpans(rep, stats.spans, cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	mallocs    uint64
	gcCPU, cpu float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	out := runtimeSample{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.cpu = s[1].Value.Float64()
	}
	return out
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{mallocs: a.mallocs - b.mallocs, gcCPU: a.gcCPU - b.gcCPU, cpu: a.cpu - b.cpu}
}

func (d runtimeSample) report(rep *report, completed int64) {
	rep.set("runtime.mallocs_per_query", ratio(float64(d.mallocs), float64(completed)))
	rep.set("runtime.gc_cpu_fraction", ratio(d.gcCPU, d.cpu))
}
