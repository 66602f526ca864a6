package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var (
	simCell  = CellKey{Topology: "grid", Regime: "quiescent", Engine: "sim"}
	liveCell = CellKey{Topology: "grid", Regime: "midprotocol", Engine: "live"}
)

// TestGridExpansion: the job list covers the full cross product in
// deterministic order.
func TestGridExpansion(t *testing.T) {
	jobs := Grid{[]CellKey{simCell, liveCell}, 100, 3, 2}.Jobs()
	if len(jobs) != 2*3*2 {
		t.Fatalf("got %d jobs, want 12", len(jobs))
	}
	if jobs[0] != (Job{Cell: simCell, Seed: 100, Attempt: 0}) {
		t.Fatalf("unexpected first job %+v", jobs[0])
	}
	if jobs[len(jobs)-1] != (Job{Cell: liveCell, Seed: 102, Attempt: 1}) {
		t.Fatalf("unexpected last job %+v", jobs[len(jobs)-1])
	}
}

// TestGridIndexRoundTrip: on small random grids, Index inverts Job, Jobs
// is the cell-major nested expansion, and Index rejects every job just
// outside the grid.
func TestGridIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := []CellKey{simCell, liveCell,
		{Topology: "ring", Regime: "quiescent", Engine: "sim"},
		{Topology: "ring", Regime: "overlapping", Engine: "live"},
		{Topology: "er", Regime: "quiescent", Engine: "sim"}}
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(len(pool))
		g := Grid{
			SeedStart: rng.Int63n(41) - 20,
			Seeds:     1 + rng.Intn(5),
			Attempts:  1 + rng.Intn(3),
		}
		for _, p := range perm[:1+rng.Intn(len(pool)-1)] {
			g.Cells = append(g.Cells, pool[p])
		}
		unknown := pool[perm[len(perm)-1]]

		var want []Job
		for _, c := range g.Cells {
			for s := 0; s < g.Seeds; s++ {
				for a := 0; a < g.Attempts; a++ {
					want = append(want, Job{Cell: c, Seed: g.SeedStart + int64(s), Attempt: a})
				}
			}
		}
		if got := g.Jobs(); !slices.Equal(got, want) || g.Len() != len(want) {
			t.Fatalf("trial %d: %+v: Jobs() = %v (Len %d), want %v", trial, g, got, g.Len(), want)
		}
		for i := range g.Len() {
			job := g.Job(i)
			if got, ok := g.Index(job); !ok || got != i {
				t.Fatalf("trial %d: Index(Job(%d) = %+v) = (%d, %v)", trial, i, job, got, ok)
			}
			outside := map[string]Job{
				"unknown cell":       {Cell: unknown, Seed: job.Seed, Attempt: job.Attempt},
				"seed below range":   {Cell: job.Cell, Seed: g.SeedStart - 1, Attempt: job.Attempt},
				"seed above range":   {Cell: job.Cell, Seed: g.SeedStart + int64(g.Seeds), Attempt: job.Attempt},
				"negative attempt":   {Cell: job.Cell, Seed: job.Seed, Attempt: -1},
				"attempt = attempts": {Cell: job.Cell, Seed: job.Seed, Attempt: g.Attempts},
			}
			for name, o := range outside {
				if got, ok := g.Index(o); ok {
					t.Fatalf("trial %d: %+v: Index(%+v) (%s) = %d, want not in grid", trial, g, o, name, got)
				}
			}
		}
	}

	// Seeds at the ends of the int64 range: the distance from SeedStart
	// must not wrap into the range.
	g := Grid{Cells: []CellKey{simCell}, SeedStart: math.MinInt64, Seeds: 2, Attempts: 1}
	for _, seed := range []int64{math.MaxInt64, math.MinInt64 + 2, -1} {
		if i, ok := g.Index(Job{Cell: simCell, Seed: seed}); ok {
			t.Fatalf("Index(seed %d) on %+v = %d, want not in grid", seed, g, i)
		}
	}
	if i, ok := g.Index(Job{Cell: simCell, Seed: math.MinInt64 + 1}); !ok || i != 1 {
		t.Fatalf("Index(seed MinInt64+1) = (%d, %v), want (1, true)", i, ok)
	}
}

// runPool executes jobs through the one pool and aggregates the runs
// committed with persist=true — the shape of Campaign.Run. commit, if
// non-nil, sees every commit as well.
func runPool(ctx context.Context, workers int, jobs []Job, run func(context.Context, Job) RunStats, commit func(Job, RunStats, bool)) (*Report, error) {
	agg := NewAggregator()
	err := RunAll(ctx, workers, jobs, run, func(j Job, s RunStats, persist bool) {
		if persist {
			agg.Add(j, s)
		}
		if commit != nil {
			commit(j, s, persist)
		}
	})
	return agg.Report(), err
}

// TestPoolRunsEveryJobOnce: every job executes exactly once, and the
// concurrency high-water mark never exceeds the worker count.
func TestPoolRunsEveryJobOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[Job]int)
	var inFlight, high atomic.Int32
	run := func(_ context.Context, j Job) RunStats {
		cur := inFlight.Add(1)
		for {
			h := high.Load()
			if cur <= h || high.CompareAndSwap(h, cur) {
				break
			}
		}
		mu.Lock()
		seen[j]++
		mu.Unlock()
		inFlight.Add(-1)
		return RunStats{Nodes: 10, Decisions: 1, DecideLatency: 5, Fingerprint: "x"}
	}
	jobs := Grid{[]CellKey{simCell}, 0, 20, 2}.Jobs()
	rep, err := runPool(context.Background(), 4, jobs, run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("saw %d distinct jobs, want %d", len(seen), len(jobs))
	}
	for j, n := range seen {
		if n != 1 {
			t.Fatalf("job %+v ran %d times", j, n)
		}
	}
	if h := high.Load(); h > 4 {
		t.Fatalf("concurrency high-water %d exceeds 4 workers", h)
	}
	if rep.Totals.Runs != len(jobs) {
		t.Fatalf("report counts %d runs, want %d", rep.Totals.Runs, len(jobs))
	}
}

// TestPoolCancellation: cancelling the context stops dispatch and returns
// the context error with a partial report.
func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	run := func(context.Context, Job) RunStats {
		if ran.Add(1) == 3 {
			cancel()
		}
		return RunStats{Nodes: 1, Decisions: 1, Fingerprint: "x"}
	}
	rep, err := runPool(ctx, 1, Grid{[]CellKey{simCell}, 0, 1000, 1}.Jobs(), run, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := int(ran.Load()); n >= 1000 {
		t.Fatalf("dispatch did not stop: %d jobs ran", n)
	}
	if rep == nil || rep.Totals.Runs == 0 {
		t.Fatal("expected a partial report")
	}
}

// TestAggregation: means, percentiles and violation counters come out
// right for hand-computable inputs.
func TestAggregation(t *testing.T) {
	agg := NewAggregator()
	lat := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for i, l := range lat {
		agg.Add(Job{Cell: simCell, Seed: int64(i)}, RunStats{
			Nodes: 100, Crashed: 4, Border: 8, Domains: 1,
			Decisions: 8, Messages: 200, Bytes: 4000,
			DecideLatency: l, Fingerprint: "same",
		})
	}
	agg.Add(Job{Cell: simCell, Seed: 99}, RunStats{Err: "boom"})
	agg.Add(Job{Cell: simCell, Seed: 98}, RunStats{Skipped: true})
	rep := agg.Report()
	c := rep.CellByKey(simCell)
	if c == nil {
		t.Fatal("cell missing from report")
	}
	if c.Runs != 11 || c.Errors != 1 || c.Skipped != 1 {
		t.Fatalf("runs/errors/skipped = %d/%d/%d", c.Runs, c.Errors, c.Skipped)
	}
	if c.MeanMsgs != 200 || c.MeanBorder != 8 || c.MeanNodes != 100 {
		t.Fatalf("means off: msgs=%v border=%v nodes=%v", c.MeanMsgs, c.MeanBorder, c.MeanNodes)
	}
	if c.LatencyP50 != 50 || c.LatencyP90 != 90 || c.LatencyP99 != 100 || c.LatencyMax != 100 {
		t.Fatalf("percentiles off: %d/%d/%d/%d", c.LatencyP50, c.LatencyP90, c.LatencyP99, c.LatencyMax)
	}
	if c.AgreementRate != 1.0 {
		t.Fatalf("agreement = %v, want 1.0", c.AgreementRate)
	}
}

// TestAgreementRate: disagreeing attempts of the same seed lower the rate;
// attempts of different seeds never compare with each other.
func TestAgreementRate(t *testing.T) {
	agg := NewAggregator()
	// Seed 1: 3 attempts, outcomes x, x, y → 2/3.
	for i, fp := range []string{"x", "x", "y"} {
		agg.Add(Job{Cell: liveCell, Seed: 1, Attempt: i},
			RunStats{Nodes: 10, Decisions: 1, DecideLatency: 1, Fingerprint: fp})
	}
	// Seed 2: 3 attempts, all different outcomes → 1/3 (seed 1's "x"
	// appearing again here must not matter).
	for i, fp := range []string{"x", "q", "r"} {
		agg.Add(Job{Cell: liveCell, Seed: 2, Attempt: i},
			RunStats{Nodes: 10, Decisions: 1, DecideLatency: 1, Fingerprint: fp})
	}
	rep := agg.Report()
	c := rep.CellByKey(liveCell)
	want := (2.0/3.0 + 1.0/3.0) / 2
	if diff := c.AgreementRate - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("agreement = %v, want %v", c.AgreementRate, want)
	}
}

// TestLocalityFit: a synthetic point cloud generated from a known linear
// law must be recovered by the regression.
func TestLocalityFit(t *testing.T) {
	agg := NewAggregator()
	i := 0
	for border := 4; border <= 20; border += 4 {
		for nodes := 50; nodes <= 250; nodes += 50 {
			msgs := 7 + 30*border // independent of nodes by construction
			agg.Add(Job{Cell: simCell, Seed: int64(i)}, RunStats{
				Nodes: nodes, Border: border, Crashed: border / 2,
				Decisions: 1, Messages: msgs, Bytes: 100 * border,
				DecideLatency: 1, Fingerprint: fmt.Sprint(i),
			})
			i++
		}
	}
	fit := agg.Report().Locality
	if !fit.OK {
		t.Fatal("fit degenerate")
	}
	approx := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if !approx(fit.BorderSlope, 30, 0.01) {
		t.Fatalf("border slope = %v, want 30", fit.BorderSlope)
	}
	if !approx(fit.SizeSlope, 0, 0.01) {
		t.Fatalf("size slope = %v, want 0", fit.SizeSlope)
	}
	if !approx(fit.Intercept, 7, 0.1) {
		t.Fatalf("intercept = %v, want 7", fit.Intercept)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R² = %v, want ≈1", fit.R2)
	}
	if !approx(fit.BytesPerBorder, 100, 0.01) {
		t.Fatalf("bytes/border = %v, want 100", fit.BytesPerBorder)
	}
}

// TestReportErr: violations, run errors and dead cells make the health
// check fail; a clean report passes.
func TestReportErr(t *testing.T) {
	clean := NewAggregator()
	clean.Add(Job{Cell: simCell, Seed: 1}, RunStats{Nodes: 5, Decisions: 2, DecideLatency: 1, Fingerprint: "x"})
	if err := clean.Report().Err(); err != nil {
		t.Fatalf("clean report unhealthy: %v", err)
	}

	viol := NewAggregator()
	viol.Add(Job{Cell: simCell, Seed: 1}, RunStats{Nodes: 5, Decisions: 2, DecideLatency: 1, Violations: 3, Fingerprint: "x"})
	if err := viol.Report().Err(); err == nil || !strings.Contains(err.Error(), "violations") {
		t.Fatalf("violations not reported: %v", err)
	}

	dead := NewAggregator()
	dead.Add(Job{Cell: liveCell, Seed: 1}, RunStats{Nodes: 5, Fingerprint: ""})
	dead.Add(Job{Cell: liveCell, Seed: 2}, RunStats{Nodes: 5, Fingerprint: ""})
	if err := dead.Report().Err(); err == nil || !strings.Contains(err.Error(), "decided nothing") {
		t.Fatalf("zero-decision cell not reported: %v", err)
	}

	errs := NewAggregator()
	errs.Add(Job{Cell: simCell, Seed: 1}, RunStats{Err: "boom"})
	if err := errs.Report().Err(); err == nil || !strings.Contains(err.Error(), "run errors") {
		t.Fatalf("run errors not reported: %v", err)
	}
}

// TestWriters: JSON round-trips, CSV has a row per cell, text mentions the
// locality fit.
func TestWriters(t *testing.T) {
	agg := NewAggregator()
	for i := 0; i < 5; i++ {
		agg.Add(Job{Cell: simCell, Seed: int64(i)}, RunStats{
			Nodes: 30 + i, Crashed: 2, Border: 4 + i, Domains: 1,
			Decisions: 4, Messages: 100 + 10*i, Bytes: 900, DecideLatency: int64(10 + i),
			Fingerprint: "x",
		})
	}
	rep := agg.Report()

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 1 || back.Cells[0].Cell != simCell || back.Totals.Runs != 5 {
		t.Fatalf("JSON round-trip mangled the report: %+v", back)
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 cell", len(lines))
	}
	if got, want := len(strings.Split(lines[1], ",")), len(csvHeader); got != want {
		t.Fatalf("CSV row has %d fields, want %d", got, want)
	}

	var txtBuf bytes.Buffer
	if err := rep.WriteText(&txtBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txtBuf.String(), "locality fit") {
		t.Fatalf("text summary missing locality fit:\n%s", txtBuf.String())
	}
}

// TestAggregationNetAndRates: the netem counters, stall rate and decision
// rate aggregate per cell, and per-decision histograms merge into the
// cell distribution.
func TestAggregationNetAndRates(t *testing.T) {
	agg := NewAggregator()
	mkHist := func(vals ...int64) *Hist {
		h := &Hist{}
		for _, v := range vals {
			h.Add(v)
		}
		return h
	}
	agg.Add(Job{Cell: simCell, Seed: 1}, RunStats{
		Nodes: 10, Decisions: 2, DecideLatency: 30, Lats: mkHist(10, 30),
		Fingerprint: "a", NetDelivered: 100, NetDropped: 10, NetRetransmits: 4,
		ExpectedDeciders: 4, DecidedDeciders: 2, Stalled: false,
	})
	agg.Add(Job{Cell: simCell, Seed: 2}, RunStats{
		Nodes: 10, Decisions: 0, DecideLatency: -1,
		Fingerprint: "", NetDelivered: 50, NetDropped: 30, NetDuplicates: 2,
		ExpectedDeciders: 4, DecidedDeciders: 0, Stalled: true,
	})
	rep := agg.Report()
	c := rep.CellByKey(simCell)
	if c == nil {
		t.Fatal("cell missing")
	}
	if c.MeanNetDelivered != 75 || c.MeanNetDropped != 20 || c.MeanNetRetransmits != 2 || c.MeanNetDuplicates != 1 {
		t.Fatalf("net means wrong: %+v", c)
	}
	if c.StallRate != 0.5 {
		t.Fatalf("stall rate %v, want 0.5", c.StallRate)
	}
	if c.DecisionRate != 0.25 {
		t.Fatalf("decision rate %v, want 0.25 (2 of 8)", c.DecisionRate)
	}
	if c.LatencyCount != 2 || c.LatencyP50 != 10 || c.LatencyMax != 30 || c.LatencyMean != 20 {
		t.Fatalf("histogram aggregation wrong: %+v", c)
	}
	if len(c.LatencyBuckets) != 2 {
		t.Fatalf("latency buckets %v, want 2 non-empty", c.LatencyBuckets)
	}
}

// TestAggregationSkipLocality: runs flagged SkipLocality contribute no
// locality point.
func TestAggregationSkipLocality(t *testing.T) {
	agg := NewAggregator()
	for i := 0; i < 5; i++ {
		agg.Add(Job{Cell: simCell, Seed: int64(i)}, RunStats{
			Nodes: 10 + i, Border: 2 + i, Messages: 100, Decisions: 1,
			DecideLatency: 1, Fingerprint: "x", SkipLocality: true,
		})
	}
	if fit := agg.Report().Locality; fit.Points != 0 {
		t.Fatalf("locality used %d skipped points", fit.Points)
	}
}

// TestRunnerOnResult pins the commit contract that replaced the old
// per-result callback: exactly one commit per job, every one with
// persist=true on a clean run, none after RunAll returns — so what was
// committed is exactly what was aggregated.
func TestRunnerOnResult(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[Job]int)
	var returned atomic.Bool
	run := func(context.Context, Job) RunStats {
		return RunStats{Nodes: 10, Decisions: 1, DecideLatency: 5, Fingerprint: "x"}
	}
	jobs := Grid{[]CellKey{simCell}, 0, 10, 2}.Jobs()
	rep, err := runPool(context.Background(), 4, jobs, run, func(j Job, _ RunStats, persist bool) {
		if returned.Load() {
			t.Error("commit after RunAll returned")
		}
		if !persist {
			t.Errorf("clean run %+v committed with persist=false", j)
		}
		mu.Lock()
		seen[j]++
		mu.Unlock()
	})
	returned.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("commits for %d distinct jobs, want %d", len(seen), len(jobs))
	}
	for j, n := range seen {
		if n != 1 {
			t.Fatalf("job %+v committed %d times", j, n)
		}
	}
	if rep.Totals.Runs != len(jobs) {
		t.Fatalf("report counts %d runs, want %d", rep.Totals.Runs, len(jobs))
	}
}

// TestRunnerOnResultCancellation: under cancellation the runs committed
// with persist=true are exactly the runs the partial report contains.
// In-flight runs abort, commit with persist=false and stay out of the
// report, so cancellation noise never counts as a run error, and
// undispatched jobs are never seen.
func TestRunnerOnResultCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran, persisted, aborted atomic.Int32
	run := func(ctx context.Context, _ Job) RunStats {
		if n := ran.Add(1); n >= 5 {
			if n == 5 {
				cancel()
			}
			<-ctx.Done() // in flight when the caller gave up
			return RunStats{Err: ctx.Err().Error()}
		}
		return RunStats{Nodes: 1, Decisions: 1, Fingerprint: "x"}
	}
	rep, err := runPool(ctx, 2, Grid{[]CellKey{simCell}, 0, 1000, 1}.Jobs(), run, func(_ Job, _ RunStats, persist bool) {
		if persist {
			persisted.Add(1)
		} else {
			aborted.Add(1)
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := int(persisted.Load()); got != 4 || got != rep.Totals.Runs {
		t.Fatalf("%d persisted commits vs %d aggregated runs, want 4 each", got, rep.Totals.Runs)
	}
	if rep.Totals.Errors != 0 {
		t.Fatalf("partial report counts %d errors: aborted runs leaked in", rep.Totals.Errors)
	}
	if a := aborted.Load(); a < 1 || persisted.Load()+a != ran.Load() {
		t.Fatalf("%d runs, %d persisted, %d aborted: every run must commit once", ran.Load(), persisted.Load(), a)
	}
}

// syntheticStats derives a deterministic, hand-varied RunStats for a job —
// the input of the order-independence test.
func syntheticStats(j Job) RunStats {
	k := int(j.Seed)*7 + j.Attempt*3
	h := &Hist{}
	h.Add(int64(10 + k))
	h.Add(int64(40 + k*2))
	return RunStats{
		Nodes: 50 + k, Crashed: 4, Border: 6 + k%5, Domains: 1,
		Decisions: 3, Messages: 200 + 11*k, Deliveries: 300, Bytes: 4000 + k,
		DecideLatency: int64(40 + k*2), Lats: h,
		Fingerprint:      fmt.Sprintf("fp-%d", k%4),
		ExpectedDeciders: 6, DecidedDeciders: 5,
	}
}

// TestAggregatorOrderIndependence: the encoded report is a pure function
// of the result multiset — forward and reversed add orders produce
// byte-identical JSON. Resume-from-store replays results in log order,
// not completion order, so persistence correctness rides on this.
func TestAggregatorOrderIndependence(t *testing.T) {
	jobs := Grid{[]CellKey{simCell, liveCell}, 3, 9, 2}.Jobs()
	render := func(order []Job) []byte {
		agg := NewAggregator()
		for _, j := range order {
			agg.Add(j, syntheticStats(j))
		}
		var buf bytes.Buffer
		if err := agg.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fwd := render(jobs)
	rev := make([]Job, len(jobs))
	for i, j := range jobs {
		rev[len(jobs)-1-i] = j
	}
	if !bytes.Equal(fwd, render(rev)) {
		t.Fatal("report bytes depend on add order")
	}
}

// TestHistJSONRoundTrip: the histogram wire format is exact — a decoded
// histogram answers every query and merges identically to the original.
func TestHistJSONRoundTrip(t *testing.T) {
	h := &Hist{}
	for _, v := range []int64{0, 1, 5, 127, 128, 1000, 1 << 20, 3} {
		h.Add(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Mean() != h.Mean() || back.Max() != h.Max() {
		t.Fatalf("moments changed: %d/%v/%d vs %d/%v/%d",
			back.Count(), back.Mean(), back.Max(), h.Count(), h.Mean(), h.Max())
	}
	for _, p := range []int{0, 50, 90, 99, 100} {
		if back.Percentile(p) != h.Percentile(p) {
			t.Fatalf("p%d changed: %d vs %d", p, back.Percentile(p), h.Percentile(p))
		}
	}
	re, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("re-encoding not a fixed point:\n%s\n%s", data, re)
	}

	var empty Hist
	data, err = json.Marshal(&empty)
	if err != nil {
		t.Fatal(err)
	}
	var backEmpty Hist
	if err := json.Unmarshal(data, &backEmpty); err != nil {
		t.Fatal(err)
	}
	if backEmpty.Count() != 0 || backEmpty.Percentile(50) != 0 {
		t.Fatal("empty histogram round-trip broken")
	}
}
