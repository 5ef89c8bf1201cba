// Command perfbench is the repository benchmark. One invocation runs one
// workload in this process, measures it for a fixed time, checks the
// program's outputs, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with every
// wrapper and the CPU profile off. With --trace 1 the run wraps the calls
// into each layer, records spans, takes a CPU profile, and reports the
// per-layer set instead; it still prints its own end-to-end figures so
// the tracing overhead shows. --overhead runs both modes as child
// processes and prints, per end-to-end metric, traced minus untraced.
//
// Build and run it from the repository root through run.sh, which keeps
// every build artifact inside the checkout:
//
//	bash perfbench/run.sh --workload market-48 --seed 1 --seconds 20 --trace 0
//
// A correctness failure still prints the result line (with
// "correct": false) and exits 1; a run that cannot start exits 1 without
// a result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s for the first set-up of a run: the
// package-level initializer runs before main, as close to process start
// as Go code gets.
var processStart = time.Now()

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	measure  time.Duration
	trace    bool
	spansOut string
}

type benchWorkload struct {
	name string
	run  func(runConfig) (*report, error)
}

var workloads = []benchWorkload{
	{"market-48", runMarket},
	{"fetch-scan", runFetch},
	{"paper-zipf", runZipf},
}

// metricDef names one reported metric. The lists below are the contract
// with BENCHMARK.json: every run reports each metric of its mode.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"cpu_ms_per_query", "ms"},
}

var perLayer = []metricDef{
	{"client.negotiate_ms_p50", "ms"},
	{"client.exec_ms_p50", "ms"},
	{"client.other_ms_p50", "ms"},
	{"client.retries_per_query", "count"},
	{"client.backoff_ms_per_query", "ms"},
	{"client.negotiate_rpcs_per_query", "count"},
	{"client.execute_rpcs_per_query", "count"},
	{"client.members_rpcs_per_query", "count"},
	{"client.fetch_rpcs_per_query", "count"},
	{"client.rpc_negotiate_ms_p50", "ms"},
	{"client.bid_cache_hit_ratio", "ratio"},
	{"client.bid_cache_invalidations_per_query", "count"},
	{"client.wire_bytes_per_query", "B"},
	{"client.wire_bytes_per_row", "B"},
	{"client.rows_per_s", "1/s"},
	{"market.accept_ratio", "ratio"},
	{"membership.converge_s", "s"},
	{"cpu.gossip_share", "ratio"},
	{"cpu.executor_share", "ratio"},
	{"cpu.market_share", "ratio"},
	{"cpu.transport_share", "ratio"},
	{"cpu.gc_share", "ratio"},
	{"driver.prepare_ms_p50", "ms"},
	{"driver.execute_ms_p50", "ms"},
	{"driver.execute_ns_per_row", "ns"},
	{"alloc.assign_ns_per_query", "ns"},
	{"alloc.period_start_ms_total", "ms"},
	{"alloc.period_end_ms_total", "ms"},
	{"sim.self_s", "s"},
	{"runtime.max_rss_mb", "MB"},
	{"runtime.mallocs_per_query", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.late_ms_max", "ms"},
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	values            map[string]float64
	// lines are extra human-readable findings (sample counts, metrics
	// that apply to this workload only).
	lines []string
	// errs are correctness-check failures.
	errs []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setRSS records the process's peak resident memory so far. It is a
// per-layer metric, printed on every run: on paper-zipf it ranged 23-52 MB
// over identical work, too wide for a bound.
func (r *report) setRSS() {
	v := maxRSSMB()
	r.set("runtime.max_rss_mb", v)
	r.note("max_rss_mb %.6g MB", v)
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: market-48 | fetch-scan | paper-zipf")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1: wrap layer calls, record spans and a CPU profile, report per-layer metrics")
	spansOut := flag.String("spans", "", "traced runs: write the recorded spans as JSON lines here (default .bench_build/spans-<workload>-<seed>.jsonl)")
	overhead := flag.Bool("overhead", false, "run the workload untraced and traced in child processes and print traced minus untraced per end-to-end metric")
	flag.Parse()

	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fail(fmt.Errorf("unknown --workload %q", *name))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	if *overhead {
		if err := runOverhead(wl.name, *seed, *seconds); err != nil {
			fail(err)
		}
		return
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		spansOut: *spansOut,
	}
	if cfg.trace && cfg.spansOut == "" {
		cfg.spansOut = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", wl.name, *seed)
	}
	rep, err := wl.run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", wl.name, err))
	}
	if err := emit(os.Stdout, wl.name, cfg, rep); err != nil {
		fail(err)
	}
	if len(rep.errs) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the run's environment, every metric as "name value unit",
// the correctness verdict, and the JSON result line last.
func emit(w *os.File, name string, cfg runConfig, rep *report) error {
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v\n", name, cfg.seed, cfg.measure.Seconds(), cfg.trace)
	fmt.Fprintf(w, "# env num_cpu %d gomaxprocs %d go %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, l := range rep.lines {
		fmt.Fprintln(w, "#", l)
	}
	e2e := make(map[string]float64, len(endToEnd))
	for _, m := range endToEnd {
		v, ok := rep.values[m.name]
		if !ok {
			return fmt.Errorf("%s did not report %s", name, m.name)
		}
		e2e[m.name] = v
		fmt.Fprintf(w, "%s %s %s\n", m.name, fmtValue(v), m.unit)
	}
	// The end-to-end figures ride a machine-readable line too, so
	// --overhead can diff a traced run against an untraced one.
	data, err := json.Marshal(finiteMap(e2e))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E2E %s\n", data)
	set := endToEnd
	if cfg.trace {
		set = perLayer
		for _, m := range perLayer {
			v, ok := rep.values[m.name]
			if !ok {
				// The workload never crosses this layer: nothing was
				// counted, so the figure is zero.
				rep.values[m.name] = 0
				v = 0
			}
			fmt.Fprintf(w, "%s %s %s\n", m.name, fmtValue(v), m.unit)
		}
	}
	res := resultLine{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(set)),
	}
	for _, m := range set {
		res.Metrics[m.name] = metricOut{Value: finite(rep.values[m.name]), Unit: m.unit}
	}
	for _, e := range rep.errs {
		fmt.Fprintln(w, "# CHECK FAILED:", e)
	}
	if res.Correct {
		fmt.Fprintln(w, "# checks passed")
	}
	if res.Attempted < 1 {
		return errors.New("no query was attempted")
	}
	data, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func fmtValue(v float64) string {
	if v == posInf {
		return "+Inf"
	}
	return fmt.Sprintf("%.6g", v)
}

func finiteMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = finite(v)
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sortedKeys lists a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runOverhead runs the workload twice as child processes, untraced then
// traced, and prints traced minus untraced for each end-to-end metric.
func runOverhead(name string, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs [2]map[string]float64
	for i := range runs {
		args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(i)}
		out, err := runChild(self, args)
		if err != nil {
			return fmt.Errorf("trace %d run: %w", i, err)
		}
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "E2E "); ok {
				if err := json.Unmarshal([]byte(rest), &runs[i]); err != nil {
					return fmt.Errorf("trace %d run: %w", i, err)
				}
			}
		}
		if runs[i] == nil {
			return fmt.Errorf("trace %d run printed no end-to-end line", i)
		}
	}
	fmt.Printf("# tracing overhead on %s, seed %d: traced - untraced\n", name, seed)
	for _, m := range endToEnd {
		u, t := runs[0][m.name], runs[1][m.name]
		rel := 0.0
		if u != 0 {
			rel = (t - u) / u
		}
		fmt.Printf("overhead.%s %+.6g %s (%+.1f%%; untraced %.6g, traced %.6g)\n", m.name, t-u, m.unit, 100*rel, u, t)
	}
	return nil
}

// runChild runs the benchmark binary again with args, passing its
// standard error through, and returns its standard output.
func runChild(bin string, args []string) (string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return string(out), err
}
