package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cliffedge/internal/gen"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json is
// generated from these tables (-manifest), so the file the driver reads
// and the names the program prints cannot drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	// Moves names, for a per-layer metric, the workload/end-to-end metric
	// it is expected to move; Owner is the workload whose traced run
	// measures it ("" = every traced run). A per-layer metric reads 0 in
	// the traced runs of the other workloads: not measured there.
	Moves string
	Owner string
	Doc   string
}

const (
	wKernel = "kernel_cascade96"
	wMixed  = "sweep_mixed"
	wCheap  = "fleet_cheap"
	wOpen   = "serve_open"
)

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json
// "why"); bench/README.md has the long form.
var workloadWhy = []struct{ Name, Why string }{
	{wKernel, "one 96x96 cascade run, Shards 1, trace discarded: sim+core with long border vectors; store/serve/fleet/gen idle"},
	{wMixed, "6 topologies x 6 regimes x 100 seeds through serve over loopback HTTP+SSE: thousands of small runs, so per-run set-up, checker, gen and appends dominate"},
	{wCheap, "7200 cheap ring jobs through fleet.Coordinator over 2 in-process workers: per-job service cost (commit, /results re-fetch, dedup) is most of the time"},
	{wOpen, "open loop of 16-job campaigns due every 50 ms against one serve.Server: many creates instead of many appends; latency from due time"},
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median of 5 full set-up cycles: spec/topology build, store dirs, servers, listeners and a reduced-size warm-up operation"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median wall time of one operation: one Run(); one POST->report sweep; one POST->report fleet; serve_open: schedule start -> last report"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "VmHWM of the benchmark process at exit"},
}

// perLayer is filled by init: the fixed entries below plus one
// cliffedge.job_us.<name> per regime and per topology family.
var perLayer = []metricDef{
	// sim (core is inside these numbers).
	{Name: "sim.msgs", Unit: "count", Better: "lower", Moves: wKernel + "/wall_s", Owner: wKernel, Doc: "exact: protocol messages of one 96x96 run"},
	{Name: "sim.bytes_per_msg", Unit: "B", Better: "lower", Moves: wKernel + "/wall_s", Owner: wKernel, Doc: "exact: simulated wire bytes / messages"},
	{Name: "sim.allocs_per_run", Unit: "count", Better: "lower", Moves: wKernel + "/wall_s", Owner: wKernel, Doc: "heap allocations of one Run()"},
	{Name: "sim.alloc_mb_per_run", Unit: "MB", Better: "lower", Moves: wKernel + "/peak_rss_mb", Owner: wKernel, Doc: "bytes allocated by one Run()"},
	{Name: "sim.ns_per_msg", Unit: "ns", Better: "lower", Moves: wKernel + "/wall_s", Owner: wKernel, Doc: "Run() wall / messages at 96x96"},
	{Name: "sim.new_runner_ms", Unit: "ms", Better: "lower", Moves: wKernel + "/setup_s", Owner: wKernel, Doc: "sim.NewRunner at 96x96"},
	{Name: "sim.ns_per_msg_64", Unit: "ns", Better: "lower", Moves: wKernel + "/wall_s", Owner: wKernel, Doc: "Run() wall / messages at 64x64"},
	{Name: "sim.scale_ratio_96_64", Unit: "ratio", Better: "lower", Moves: wKernel + "/wall_s", Owner: wKernel, Doc: "ns/msg at 96x96 / ns/msg at 64x64 (ROADMAP item 2 target)"},
	{Name: "sim.shards2_ratio", Unit: "ratio", Better: "lower", Moves: wKernel + "/wall_s", Owner: wKernel, Doc: "wall at Shards 2 / wall at Shards 1, stats asserted identical"},
	// trace
	{Name: "trace.binary_ratio", Unit: "ratio", Better: "lower", Moves: wKernel + "/wall_s (tracing on only)", Owner: wKernel, Doc: "64x64 run streaming the binary trace to a discarding writer / trace discarded"},
	{Name: "trace.encode_ns_per_event", Unit: "ns", Better: "lower", Moves: wKernel + "/wall_s (tracing on only)", Owner: wKernel, Doc: "BinaryWriter.Write over captured events"},
	{Name: "trace.bytes_per_event", Unit: "B", Better: "lower", Moves: wKernel + "/wall_s (tracing on only)", Owner: wKernel, Doc: "encoded bytes / events"},
	// check
	{Name: "check.ns_per_event", Unit: "ns", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "check.Online.Observe over captured events of mixed jobs"},
	{Name: "check.report_ms", Unit: "ms", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "check.Online.Report, median per job"},
	// gen
	{Name: "gen.draw_us_per_job", Unit: "us", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Family.New + Regime.Plan + NetModel over the mixed grid"},
	// cliffedge (root package job path)
	{Name: "cliffedge.run_job_us_p50", Unit: "us", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Campaign.RunJob over the mixed grid"},
	{Name: "cliffedge.run_job_us_p95", Unit: "us", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Campaign.RunJob over the mixed grid"},
	{Name: "cliffedge.job_us_cheap", Unit: "us", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "mean Campaign.RunJob over the cheap ring grid"},
	// campaign
	{Name: "campaign.agg_add_ns", Unit: "ns", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Aggregator.Add per run"},
	{Name: "campaign.report_ms", Unit: "ms", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Aggregator.Report + WriteJSON"},
	{Name: "campaign.pool_busy_share", Unit: "ratio", Better: "higher", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "sum of job times / (workers x wall) of a direct pool run"},
	// store
	{Name: "store.append_ns", Unit: "ns", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "Results.Append per record"},
	{Name: "store.bytes_per_rec", Unit: "B", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "results.log bytes / records"},
	{Name: "store.replay_ms_per_10k", Unit: "ms", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "OpenResults replay per 10000 records"},
	{Name: "store.create_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/lat_p50_ms", Owner: wOpen, Doc: "Store.Create (dir + manifest tmp+rename)"},
	// serve
	{Name: "serve.commit_ns", Unit: "ns", Better: "lower", Moves: wMixed + "/wall_s, " + wCheap + "/wall_s", Owner: wCheap, Doc: "Sweep.Commit per run"},
	{Name: "serve.sse_write_ns", Unit: "ns", Better: "lower", Moves: wMixed + "/wall_s", Owner: wCheap, Doc: "WriteSSE per event"},
	{Name: "serve.sse_events", Unit: "count", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "exact: SSE events of one mixed sweep, ids dense 1..N"},
	{Name: "serve.overhead_ratio", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "HTTP sweep wall / direct Campaign.Run wall, same spec"},
	{Name: "serve.sweep_ttfe_ms", Unit: "ms", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "POST -> first result event of a mixed sweep"},
	{Name: "serve.cheap_wall_s", Unit: "s", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "the fleet_cheap spec on one serve.Server, pool 2"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower", Moves: wOpen + "/lat_p50_ms", Owner: wOpen, Doc: "POST /api/v1/campaigns round trip"},
	{Name: "serve.report_get_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/lat_p50_ms", Owner: wOpen, Doc: "GET report.json round trip, median"},
	{Name: "serve.sat_rate", Unit: "1/s", Better: "higher", Moves: wOpen + "/lat_p95_ms", Owner: wOpen, Doc: "closed loop, 2 clients: small campaigns per second"},
	{Name: "serve.contended_lat_p50_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/lat_p50_ms", Owner: wOpen, Doc: "small campaigns beside a running mixed sweep (fair share)"},
	{Name: "serve.contended_lat_p90_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/lat_p95_ms", Owner: wOpen, Doc: "same; p90 is the highest percentile ~130 samples support"},
	{Name: "serve.resume_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/setup_s", Owner: wOpen, Doc: "NewServer on a store with one finished and one half-run cheap campaign"},
	// fleet
	{Name: "fleet.overhead_ratio", Unit: "ratio", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "fleet wall / serve.cheap_wall_s"},
	{Name: "fleet.sync_batches", Unit: "count", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "result-log fetches of one fleet (GET /metrics delta)"},
	{Name: "fleet.records_merged", Unit: "count", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "exact: records newly committed = grid size"},
	{Name: "fleet.records_deduped", Unit: "count", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "records fetched again and dropped"},
	{Name: "fleet.dedup_per_merged", Unit: "ratio", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "wasted / useful records"},
	{Name: "fleet.results_bytes_fetched", Unit: "B", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "/results response bytes read by the coordinator"},
	{Name: "fleet.merge_ns_per_rec", Unit: "ns", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "MergeRecords per record"},
	{Name: "fleet.split_us", Unit: "us", Better: "lower", Moves: wCheap + "/wall_s", Owner: wCheap, Doc: "Split into 8 shards"},
	// obs
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "GET /metrics, median"},
	{Name: "obs.scrape_ratio", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "mixed sweep with a 10 Hz scraper / without"},
	// serve_open latencies: per-layer because the driver wants every
	// end-to-end metric on every workload and these exist on one.
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/wall_s (under backlog)", Owner: wOpen, Doc: "due time -> report body read"},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/wall_s (under backlog)", Owner: wOpen, Doc: "limit: <= 100 with no backlog at the end of the schedule, or the run is incorrect"},
	{Name: "ttfe_p50_ms", Unit: "ms", Better: "lower", Moves: wOpen + "/wall_s (under backlog)", Owner: wOpen, Doc: "due time -> first result event"},
	{Name: "load.late_p95_ms", Unit: "ms", Better: "lower", Moves: "none: validity of " + wOpen, Owner: wOpen, Doc: "how late the generator sent; above 5 ms the run is invalid (correct=false), not slow"},
	// spans
	{Name: "spans.count", Unit: "count", Better: "lower", Moves: "none", Doc: "spans recorded by the traced repetition"},
	{Name: "spans.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none", Doc: "traced / untraced wall of the same operation"},
	{Name: "spans.coverage", Unit: "ratio", Better: "higher", Moves: "none", Owner: wMixed, Doc: "sum of replica job spans / Campaign.RunJob time for the same jobs"},
	{Name: "spans.accounted_share", Unit: "ratio", Better: "higher", Moves: "none", Owner: wMixed, Doc: "layer self times / traced operation time; must be >= 0.9"},
	{Name: "spans.share.gen", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "self-time share of the replica sweep"},
	{Name: "spans.share.cliffedge", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "cliffedge.New, plan build, summarise"},
	{Name: "spans.share.sim", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Cluster.Run (sim+core+trace) minus the observer's estimated time"},
	{Name: "spans.share.check", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "check.Online: events x check.ns_per_event + Report spans"},
	{Name: "spans.share.campaign", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Aggregator.Add"},
	{Name: "spans.share.store", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "Results.Append"},
	{Name: "spans.share.serve", Unit: "ratio", Better: "lower", Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "WriteSSE"},
	// proc / host
	{Name: "proc.cpu_s", Unit: "s", Better: "lower", Moves: "wall_s of the same workload", Doc: "user+system CPU of the traced run"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Moves: "wall_s of the same workload", Doc: "GC cycles of the traced run"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "wall_s of the same workload", Doc: "total GC pause of the traced run"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower", Moves: "none: machine speed", Doc: "fixed splitmix loop before the workload"},
	{Name: "host.calib_drift", Unit: "ratio", Better: "lower", Moves: "none: machine speed", Doc: "the same loop after the workload / before"},
}

func init() {
	for _, r := range gen.RegimeNames() {
		perLayer = append(perLayer, metricDef{Name: "cliffedge.job_us." + r, Unit: "us", Better: "lower",
			Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "mean Campaign.RunJob, regime " + r})
	}
	for _, f := range gen.FamilyNames() {
		perLayer = append(perLayer, metricDef{Name: "cliffedge.job_us." + f, Unit: "us", Better: "lower",
			Moves: wMixed + "/wall_s", Owner: wMixed, Doc: "mean Campaign.RunJob, topology " + f})
	}
}

// ledger collects the metrics of one run, by registered name.
type ledger struct {
	defs   []metricDef
	values map[string]float64
}

func newLedger(defs []metricDef) *ledger {
	return &ledger{defs: defs, values: make(map[string]float64)}
}

// set records a value; an unregistered name is a bug in the benchmark.
func (l *ledger) set(name string, v float64) {
	if !slices.ContainsFunc(l.defs, func(d metricDef) bool { return d.Name == name }) {
		panic("bench: metric " + name + " is not registered")
	}
	l.values[name] = v
}

// print writes one "metric <name> <value> <unit>" line per measured
// metric, in table order.
func (l *ledger) print() {
	for _, d := range l.defs {
		if v, ok := l.values[d.Name]; ok {
			fmt.Printf("metric %-32s %16.6f %s\n", d.Name, v, d.Unit)
		}
	}
}

// median of a non-empty sample (mean of the middle pair when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of a non-empty sample.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// highestSupported picks the highest reportable percentile of n samples:
// the largest of the candidates that still leaves ten samples beyond it.
// 0 means not even the median is supported (n < 20).
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads VmHWM, the resident-set high-water mark of this process.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds is the CPU time, summed over this machine's CPUs, that the
// hypervisor has given to other guests since boot (/proc/stat, 0 where
// the kernel does not report it). A run with seconds of it was measured
// on a machine that was not there part of the time.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks / 100 // USER_HZ
}

var calibSink uint64

// calibrate times a fixed splitmix64 loop (best of 3): a reading of the
// machine's speed that depends on nothing in this repository, taken
// before and after a workload so drift between runs is visible.
func calibrate() time.Duration {
	best := time.Duration(0)
	for r := 0; r < 3; r++ {
		start := time.Now()
		x, acc := uint64(1), uint64(0)
		for i := 0; i < 20_000_000; i++ {
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			acc += z ^ (z >> 31)
		}
		calibSink += acc
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// procCounters snapshots the process-level counters a traced run reports
// as deltas.
type procCounters struct {
	cpu     float64
	gc      uint32
	pauseNs uint64
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{cpu: cpuSeconds(), gc: ms.NumGC, pauseNs: ms.PauseTotalNs}
}
