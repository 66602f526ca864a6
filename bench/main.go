// Command bench is the stack benchmark (see README.md in this directory
// and BENCHMARK.json at the repository root): four workloads, one process
// each, that drive the repository's layers the way a user does and report
// end-to-end metrics, or with -trace 1 the per-layer ledger.
//
//	bash bench/run.sh --workload sweep_mixed --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// nproc bounds every pool and the requests in flight: all load comes
// from this one process and must not oversubscribe the machine.
var nproc = runtime.NumCPU()

// sizes are the workload dimensions. full is what BENCHMARK.json
// measures; smoke is 1/50 of it for the tests.
type sizes struct {
	smoke                              bool
	kernelN, kernelWarmN, kernelSmallN int
	mixedSeeds, mixedWarmSeeds         int
	cheapSeeds, cheapWarmSeeds         int
	openInterval, openLimit            time.Duration
	openWarm                           int // closed-loop warm-up campaigns per set-up
	tracedPlain, tracedOpen            int // campaigns of a traced run's plain and spanned schedules
	satFor                             time.Duration
	contendedSeeds, contendedMax       int
	minReps, setupCycles               int
	// nominalOp is what one operation of the repeated workloads is taken
	// to last: --seconds divided by it is the number of repetitions.
	nominalOp time.Duration
}

var (
	full = sizes{
		kernelN: 96, kernelWarmN: 64, kernelSmallN: 64,
		mixedSeeds: 100, mixedWarmSeeds: 25,
		cheapSeeds: 1200, cheapWarmSeeds: 450,
		openInterval: 50 * time.Millisecond, openLimit: time.Second, openWarm: 100, tracedPlain: 400, tracedOpen: 200,
		satFor: 3 * time.Second, contendedSeeds: 150, contendedMax: 400,
		minReps: 3, setupCycles: 5,
		nominalOp: 6 * time.Second,
	}
	smoke = sizes{
		smoke:   true,
		kernelN: 16, kernelWarmN: 8, kernelSmallN: 12,
		mixedSeeds: 2, mixedWarmSeeds: 1,
		cheapSeeds: 20, cheapWarmSeeds: 2,
		openInterval: 20 * time.Millisecond, openLimit: time.Second, openWarm: 4, tracedPlain: 10, tracedOpen: 10,
		satFor: 200 * time.Millisecond, contendedSeeds: 3, contendedMax: 20,
		minReps: 2, setupCycles: 2,
		nominalOp: time.Second,
	}
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	work     string // scratch directory for stores, inside the checkout
	out      string // where trace.json goes
}

// counts are the operations a run attempted and how many failed.
type counts struct{ attempted, failed int }

// workload is one of the four. setup builds everything an operation
// needs and runs a reduced-size warm-up operation; teardown undoes it.
// reference computes the untimed oracle the outputs are checked against.
// measure repeats the operation for the budget and sets the workload's
// end-to-end metrics; traced runs it once plain and once with spans,
// plus the probes this workload owns, and sets per-layer metrics.
type workload interface {
	setup() error
	teardown()
	reference() error
	measure(budget time.Duration, out *ledger) (counts, error)
	traced(tr *tracer, out *ledger) (counts, error)
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case wKernel:
		return &kernelWorkload{sz: o.sz, seed: o.seed}, nil
	case wMixed:
		return newSweepWorkload(o, mixedSpec(o.seed, o.sz.mixedSeeds), mixedSpec(o.seed, o.sz.mixedWarmSeeds), false), nil
	case wCheap:
		return newSweepWorkload(o, cheapSpec(o.seed, o.sz.cheapSeeds), cheapSpec(o.seed, o.sz.cheapWarmSeeds), true), nil
	case wOpen:
		return &openWorkload{sz: o.sz, seed: o.seed, work: o.work}, nil
	}
	var names []string
	for _, w := range workloadWhy {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
}

// repetitions turns --seconds into a number of repetitions: the budget
// divided by the nominal operation time, at least sz.minReps. A count,
// not a stopwatch, so that every run at a given --seconds does the same
// work: cutting off by the clock would give a faster build more
// repetitions, and on fleet_cheap a higher peak RSS with them (the
// servers keep finished fleets in memory).
func (sz sizes) repetitions(budget time.Duration) int {
	return max(int(budget/sz.nominalOp), sz.minReps)
}

// repeat runs op n times — runtime.GC(), then one whole operation, timed
// by op itself — and returns the wall seconds of every repetition.
func repeat(n int, op func() (time.Duration, error)) ([]float64, error) {
	reps := make([]float64, 0, n)
	for len(reps) < n {
		runtime.GC()
		d, err := op()
		if err != nil {
			return reps, err
		}
		reps = append(reps, seconds(d))
	}
	return reps, nil
}

// result is one run's outcome; line renders the driver's last line.
type result struct {
	ledger  *ledger
	counts  counts
	gateErr error // an output was wrong: the run reports correct=false
}

func (r result) line() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.ledger.defs))
	for _, d := range r.ledger.defs {
		metrics[d.Name] = value{r.ledger.values[d.Name], d.Unit}
	}
	data, err := json.Marshal(map[string]any{
		"correct": r.gateErr == nil, "attempted": max(r.counts.attempted, 1), "failed": r.counts.failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // only NaN or Inf can do this, and those are benchmark bugs
	}
	return string(data)
}

// info prints a free-form line of context above the metrics.
func info(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// run executes one workload and returns its result. A non-nil error
// means the benchmark itself could not run; wrong outputs come back in
// result.gateErr.
func run(o options) (result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(o.work, "run-*")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	o.work = work
	w, err := newWorkload(o)
	if err != nil {
		return result{}, err
	}
	stamp := newStamp(o)
	stealBefore := stealSeconds()
	calibBefore := calibrate()

	if !o.trace {
		res := result{ledger: newLedger(endToEnd)}
		var setups []float64
		for i := 0; i < o.sz.setupCycles; i++ {
			if i > 0 {
				w.teardown()
			}
			runtime.GC()
			start := time.Now()
			if err := w.setup(); err != nil {
				return res, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, seconds(time.Since(start)))
		}
		defer w.teardown()
		info("set-up cycles %.3f", setups)
		res.ledger.set("setup_s", median(setups))
		if err := w.reference(); err != nil {
			return res, fmt.Errorf("reference: %w", err)
		}
		res.counts, res.gateErr = w.measure(time.Duration(o.seconds*float64(time.Second)), res.ledger)
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		res.ledger.set("peak_rss_mb", rss)
		stamp["host.calib_ms"] = []float64{millis(calibBefore), millis(calibrate())}
		stamp["host.steal_s"] = stealSeconds() - stealBefore
		printStamp(stamp)
		return res, nil
	}

	res := result{ledger: newLedger(perLayer)}
	tr := newTracer()
	before := readProc()
	if err := w.setup(); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()
	if err := w.reference(); err != nil {
		return res, fmt.Errorf("reference: %w", err)
	}
	res.counts, res.gateErr = w.traced(tr, res.ledger)
	after := readProc()
	calibAfter := calibrate()
	res.ledger.set("proc.cpu_s", after.cpu-before.cpu)
	res.ledger.set("proc.gc_cycles", float64(after.gc-before.gc))
	res.ledger.set("proc.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
	res.ledger.set("host.calib_ms", millis(calibBefore))
	res.ledger.set("host.calib_drift", seconds(calibAfter)/seconds(calibBefore))
	spans := tr.snapshot()
	res.ledger.set("spans.count", float64(len(spans)))
	stamp["host.calib_ms"] = []float64{millis(calibBefore), millis(calibAfter)}
	stamp["host.steal_s"] = stealSeconds() - stealBefore
	printStamp(stamp)
	path := filepath.Join(o.out, "trace.json")
	if err := writeChromeTrace(path, spans, stamp); err != nil {
		return res, err
	}
	info("%d spans written to %s", len(spans), path)
	printLayerSelf(spans)
	return res, nil
}

// printLayerSelf prints the self time of every layer the spans touched.
func printLayerSelf(spans []span) {
	self := layerSelf(spans, 0)
	for _, layer := range slices.Sorted(maps.Keys(self)) {
		info("self time %-10s %10.3f ms", layer, millis(self[layer]))
	}
}

// newStamp identifies what produced an output: revision, machine size,
// toolchain, seed. run adds the calibration readings and the CPU seconds
// the hypervisor gave to other guests meanwhile.
func newStamp(o options) map[string]any {
	return map[string]any{
		"rev": gitRev(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
	}
}

func printStamp(stamp map[string]any) {
	data, _ := json.Marshal(stamp) // strings and numbers only
	fmt.Printf("stamp %s\n", data)
}

// gitRev is `git rev-parse --short HEAD`, "-dirty" when the tree has
// changes, "unknown" outside a git checkout (the driver's, for one).
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		return strings.TrimSpace(string(rev)) + "-dirty"
	}
	return strings.TrimSpace(string(rev))
}

// manifest renders BENCHMARK.json from the metric tables.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadWhy {
		m.Workloads = append(m.Workloads, wl(w))
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 24

func main() {
	var o options
	var traceFlag int
	var smokeFlag, manifestFlag bool
	flag.StringVar(&o.workload, "workload", "", "kernel_cascade96, sweep_mixed, fleet_cheap or serve_open")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1: one traced repetition and the per-layer ledger instead of the end-to-end metrics")
	flag.BoolVar(&smokeFlag, "smoke", false, "1/50 size (what the tests run)")
	flag.BoolVar(&manifestFlag, "manifest", false, "print BENCHMARK.json and exit")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for stores")
	flag.StringVar(&o.out, "out", "bench/out", "directory for trace.json")
	flag.Parse()
	if manifestFlag {
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		os.Stdout.Write(data)
		return
	}
	o.trace = traceFlag != 0
	o.sz = full
	if smokeFlag {
		o.sz = smoke
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res.ledger.print()
	if res.gateErr != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", res.gateErr)
		fmt.Println(res.line())
		os.Exit(1)
	}
	if !o.trace && len(res.ledger.values) != len(res.ledger.defs) {
		fmt.Fprintln(os.Stderr, "bench: an end-to-end metric was not measured")
		os.Exit(2)
	}
	fmt.Println(res.line())
}
