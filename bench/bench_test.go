package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestHighestSupportedPercentile(t *testing.T) {
	// The highest percentile with ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {500, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, p := range []float64{50, 90, 95, 100} {
		if got := percentile(xs, p); got != p {
			t.Errorf("percentile(1..100, %v) = %v", p, got)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// --seconds buys a fixed number of repetitions, and wall_s is their median.
func TestRepeat(t *testing.T) {
	if n := full.repetitions(runSeconds * time.Second); n != 4 {
		t.Errorf("%d s = %d repetitions, want 4", runSeconds, n)
	}
	if n := full.repetitions(time.Second); n != full.minReps {
		t.Errorf("1 s = %d repetitions, want the minimum %d", n, full.minReps)
	}
	calls := 0
	reps, err := repeat(3, func() (time.Duration, error) { calls++; return time.Duration(calls) * time.Second, nil })
	if err != nil || calls != 3 || len(reps) != 3 || median(reps) != 2 {
		t.Errorf("repeat(3) = %v, %v after %d calls", reps, err, calls)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Layer: "bench", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Layer: "sim", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Layer: "store", Parent: 0, Start: ms(20), End: ms(50)},   // overlaps a: counted once
		{Name: "c", Layer: "store", Parent: 0, Start: ms(90), End: ms(120)},  // outlives root: clipped
		{Name: "a1", Layer: "check", Parent: 1, Start: ms(12), End: ms(18)},  // grandchild
		{Name: "other", Layer: "sim", Parent: -1, Start: ms(5), End: ms(15)}, // another operation
	}
	want := []time.Duration{ms(50), ms(14), ms(30), ms(30), ms(6), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans, 0)
	if layers["sim"] != ms(24) || layers["store"] != ms(60) || layers["bench"] != ms(50) || layers["check"] != ms(6) {
		t.Errorf("layer self times %v", layers)
	}
}

// A nil tracer must be usable: untraced repetitions run the same code.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", "y", 0, -1))
	if tr.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

// The open loop times every operation from its due time: when a stalled
// operation holds the only slot past the next due time, the operation
// behind it is charged the wait — its latency rises, not only its
// lateness.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clock := time.Unix(0, 0)
	loop := openLoop{
		now:   func() time.Time { return clock },
		sleep: func(d time.Duration) { clock = clock.Add(d) },
		spawn: func(f func()) { f() },
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	took := []time.Duration{ms(200), ms(10), ms(10)} // the first operation stalls
	samples := loop.run(3, ms(50), 1, nil, func(i int) (time.Time, time.Time, error) {
		clock = clock.Add(took[i])
		return clock, clock, nil
	})
	start := time.Unix(0, 0)
	for i, want := range []struct{ due, woke, latency time.Duration }{
		{ms(0), ms(0), ms(200)},
		{ms(50), ms(200), ms(160)}, // 10 ms of work, 150 ms behind the stall
		{ms(100), ms(210), ms(120)},
	} {
		s := samples[i]
		if s.due.Sub(start) != want.due || s.woke.Sub(start) != want.woke || s.latency() != want.latency {
			t.Errorf("sample %d: due %v woke %v latency %v, want %+v", i, s.due.Sub(start), s.woke.Sub(start), s.latency(), want)
		}
		if s.slept { // every due time had passed when the generator got to it
			t.Errorf("sample %d slept", i)
		}
	}
	// An idle schedule sleeps to each due time and is never late.
	clock = start
	for i, s := range loop.run(3, ms(50), 1, nil, func(int) (time.Time, time.Time, error) {
		clock = clock.Add(ms(10))
		return clock, clock, nil
	}) {
		if (i > 0 && !s.slept) || s.woke != s.due || s.latency() != ms(10) {
			t.Errorf("idle sample %d: slept %v, woke-due %v, latency %v", i, s.slept, s.woke.Sub(s.due), s.latency())
		}
	}
	// A closed until stops the schedule.
	stop := make(chan struct{})
	close(stop)
	if got := loop.run(3, ms(50), 1, stop, nil); len(got) != 0 {
		t.Errorf("stopped schedule issued %d operations", len(got))
	}
}

// BENCHMARK.json is generated from the metric tables; this pins the file
// to them and both to the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s")
	}
	for _, d := range perLayer {
		check(d)
		if d.Moves == "" || d.Doc == "" {
			t.Errorf("per-layer metric %q names no end-to-end metric it should move, or has no definition", d.Name)
		}
	}
	if len(perLayer) > 128 || len(got) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes", len(perLayer), len(got))
	}
	for _, w := range workloadWhy {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
}

// All four workloads at 1/50 size, untraced and traced, with every
// correctness gate on.
func TestSmoke(t *testing.T) {
	for _, w := range workloadWhy {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			res, err := run(options{workload: w.Name, seed: 7, seconds: 0.3, trace: trace, sz: smoke, work: dir, out: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.gateErr != nil || res.counts.failed != 0 || res.counts.attempted < 1 {
				t.Errorf("%s trace=%v: gate %v, counts %+v", w.Name, trace, res.gateErr, res.counts)
			}
			for _, d := range res.ledger.defs {
				v, measured := res.ledger.values[d.Name]
				owned := !trace || d.Owner == "" || d.Owner == w.Name
				if owned && (!measured || v <= 0) && d.Name != "fleet.records_deduped" && d.Name != "fleet.dedup_per_merged" {
					t.Errorf("%s trace=%v: %s = %v (measured %v), want a positive value", w.Name, trace, d.Name, v, measured)
				}
				if !owned && measured {
					t.Errorf("%s: %s belongs to %s but was measured here", w.Name, d.Name, d.Owner)
				}
			}
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader([]byte(res.line())))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(res.ledger.defs) {
				t.Errorf("%s trace=%v: result line %s: %v", w.Name, trace, res.line(), err)
			}
			if trace {
				if _, err := os.Stat(dir + "/trace.json"); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", sz: smoke, work: t.TempDir()}); err == nil {
		t.Error("unknown workload accepted")
	}
}
