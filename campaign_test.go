package cliffedge

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"cliffedge/internal/trace"
)

// TestCampaignTraceDir: WithTraceDir persists one decodable binary trace
// per job, and — because each sim run is a pure function of its job —
// two sweeps of the same grid write byte-identical trace files. This
// pins the whole streaming path: runJob's WithoutTraceBuffer posture,
// WithTraceWriter's binary sink, and Job.TraceName's naming.
func TestCampaignTraceDir(t *testing.T) {
	build := func(dir string) *Campaign {
		camp, err := NewCampaign(
			WithTopologies("grid"),
			WithRegimes("quiescent"),
			WithSeedRange(1, 2),
			WithTraceDir(dir),
		)
		if err != nil {
			t.Fatal(err)
		}
		return camp
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		rep, err := build(dir).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("unhealthy campaign: %v", err)
		}
	}
	for _, job := range build(dirA).Jobs() {
		a, err := os.ReadFile(filepath.Join(dirA, job.TraceName()))
		if err != nil {
			t.Fatalf("job %v: %v", job, err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, job.TraceName()))
		if err != nil {
			t.Fatalf("job %v: %v", job, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("job %v: trace files differ between identical sweeps", job)
		}
		events, err := trace.ReadBinary(bytes.NewReader(a))
		if err != nil {
			t.Fatalf("job %v: decode: %v", job, err)
		}
		if len(events) == 0 {
			t.Errorf("job %v: empty trace", job)
		}
		if s := trace.Summarize(events); s.Decisions == 0 {
			t.Errorf("job %v: trace records no decisions", job)
		}
	}
}

// TestCampaignSim: a small sim sweep must be healthy — zero violations,
// zero errors — and, because the simulator is deterministic, every
// repeated workload must reproduce its outcome exactly (agreement 1.0).
func TestCampaignSim(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	camp, err := NewCampaign(
		WithTopologies("grid", "datacenter"),
		WithRegimes("quiescent", "midprotocol"),
		WithSeedRange(1, seeds),
		WithRepeats(2),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("unhealthy campaign: %v", err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Runs != seeds*2 {
			t.Errorf("cell %s: %d runs, want %d", c.Cell, c.Runs, seeds*2)
		}
		if c.AgreementRate != 1.0 {
			t.Errorf("cell %s: sim agreement %v, want 1.0 (determinism broken)", c.Cell, c.AgreementRate)
		}
		if c.MeanDecisions == 0 {
			t.Errorf("cell %s: no decisions anywhere", c.Cell)
		}
		if c.LatencyMax <= 0 {
			t.Errorf("cell %s: latency max %d, want > 0", c.Cell, c.LatencyMax)
		}
	}
	if rep.Totals.Runs != 4*seeds*2 {
		t.Errorf("totals: %d runs, want %d", rep.Totals.Runs, 4*seeds*2)
	}
}

// TestCampaignLive: live cells — including the racing mid-protocol path —
// must pass the online CD1–CD7 checker in every run. Agreement may
// legitimately be below 1.0 for racy regimes; safety may not.
func TestCampaignLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live campaign in -short mode")
	}
	camp, err := NewCampaign(
		WithTopologies("grid"),
		WithRegimes("quiescent", "midprotocol"),
		WithCampaignEngines("live"),
		WithSeedRange(1, 2),
		WithRepeats(2),
		WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Violations != 0 {
		t.Fatalf("live campaign produced %d property violations", rep.Totals.Violations)
	}
	if rep.Totals.Errors != 0 {
		t.Fatalf("live campaign produced %d run errors", rep.Totals.Errors)
	}
	for _, c := range rep.Cells {
		if c.AgreementRate <= 0 || c.AgreementRate > 1 {
			t.Errorf("cell %s: agreement rate %v outside (0, 1]", c.Cell, c.AgreementRate)
		}
	}
}

// TestCampaignSimLiveSameWorkload: sim and live cells of the same
// (family, regime, seed) execute the identical workload — their crash
// footprints must match (decisions may differ only in racy regimes).
func TestCampaignSimLiveSameWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("live campaign in -short mode")
	}
	camp, err := NewCampaign(
		WithTopologies("ring"),
		WithRegimes("quiescent"),
		WithCampaignEngines("sim", "live"),
		WithSeedRange(7, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	sim := rep.CellByKey(CampaignCellKey{Topology: "ring", Regime: "quiescent", Engine: "sim"})
	live := rep.CellByKey(CampaignCellKey{Topology: "ring", Regime: "quiescent", Engine: "live"})
	if sim == nil || live == nil {
		t.Fatal("missing sim or live cell")
	}
	if sim.MeanCrashed != live.MeanCrashed || sim.MeanNodes != live.MeanNodes || sim.MeanBorder != live.MeanBorder {
		t.Fatalf("sim and live cells ran different workloads:\nsim:  %+v\nlive: %+v", sim, live)
	}
	// Quiescent plans are interleaving-independent: identical decisions.
	if sim.MeanDecisions != live.MeanDecisions {
		t.Fatalf("quiescent decisions diverge: sim %v, live %v", sim.MeanDecisions, live.MeanDecisions)
	}
}

// TestCampaignClusterOptionOverride: options the campaign controls itself
// (engine, seed, checker) must be overridden per cell even when smuggled
// in through WithClusterOptions — a sim cell stays deterministic (its
// agreement rate 1.0 guarantee would silently break on the live engine),
// and a user WithChecker must not turn violations into run errors.
func TestCampaignClusterOptionOverride(t *testing.T) {
	camp, err := NewCampaign(
		WithTopologies("grid"),
		WithRegimes("quiescent"),
		WithSeedRange(1, 2),
		WithRepeats(2),
		WithClusterOptions(WithEngine(Live()), WithChecker(), WithSeed(999)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("unhealthy campaign: %v", err)
	}
	c := rep.CellByKey(CampaignCellKey{Topology: "grid", Regime: "quiescent", Engine: "sim"})
	if c == nil {
		t.Fatal("sim cell missing")
	}
	if c.Errors != 0 {
		t.Fatalf("cluster options leaked: %d run errors", c.Errors)
	}
	if c.AgreementRate != 1.0 {
		t.Fatalf("sim cell lost determinism (agreement %v): engine override leaked", c.AgreementRate)
	}
}

// TestCampaignCancellation: a cancelled context aborts the sweep with the
// context's error.
func TestCampaignCancellation(t *testing.T) {
	camp, err := NewCampaign(WithSeedRange(1, 1000), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := camp.Run(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCampaignCancelledMidSweep: cancelling a sweep while a real run is in
// flight returns context.Canceled with a partial report over the runs that
// completed — the aborted run is dropped, not counted as a run error.
func TestCampaignCancelledMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events atomic.Int64
	camp, err := NewCampaign(
		WithTopologies("grid"),
		WithRegimes("quiescent"),
		WithSeedRange(1, 64),
		WithWorkers(1),
		// Cancel at the first crash of a run some way into the sweep: the
		// run has its whole protocol still ahead of it.
		WithClusterOptions(WithObserver(func(e Event) {
			if events.Add(1) > 10000 && e.Kind == EventCrash {
				cancel()
			}
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Totals.Runs == 0 || rep.Totals.Runs >= 64 {
		t.Fatalf("partial report counts %d of 64 runs, want a mid-sweep share", rep.Totals.Runs)
	}
	if rep.Totals.Errors != 0 {
		t.Fatalf("partial report counts %d run errors: the aborted run leaked in", rep.Totals.Errors)
	}
}

// TestCampaignOptionValidation: unknown names and invalid ranges are
// rejected at construction.
func TestCampaignOptionValidation(t *testing.T) {
	bad := []CampaignOption{
		WithTopologies("hexagon"),
		WithTopologies(),
		WithRegimes("slowburn"),
		WithRegimes(),
		WithCampaignEngines("quantum"),
		WithCampaignEngines(),
		WithSeedRange(1, 0),
		WithRepeats(0),
		WithWorkers(0),
		nil,
	}
	for i, opt := range bad {
		if _, err := NewCampaign(opt); err == nil {
			t.Errorf("option %d: invalid configuration accepted", i)
		}
	}
	if _, err := NewCampaign(); err != nil {
		t.Errorf("default campaign rejected: %v", err)
	}
}

// TestCampaignFlaky: the flaky regime (retransmission-mode degradation)
// keeps every guarantee of the reliable-channel model: zero violations,
// zero stalls, decision rate 1.0, deterministic sim agreement — while the
// netem counters show that the degradation actually happened.
func TestCampaignFlaky(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	camp, err := NewCampaign(
		WithTopologies("grid", "datacenter"),
		WithRegimes("flaky"),
		WithSeedRange(1, seeds),
		WithRepeats(2),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("unhealthy flaky campaign: %v", err)
	}
	for _, c := range rep.Cells {
		if c.Violations != 0 {
			t.Errorf("cell %s: %d violations under retransmission", c.Cell, c.Violations)
		}
		if c.AgreementRate != 1.0 {
			t.Errorf("cell %s: sim agreement %v, want 1.0", c.Cell, c.AgreementRate)
		}
		if c.StallRate != 0 {
			t.Errorf("cell %s: stall rate %v under reliable channels", c.Cell, c.StallRate)
		}
		// Growth waves can deterministically block (an earlier decider on
		// the grown border), so the rate need not be 1.0 — but reliable
		// channels keep it high and never let a whole cluster stall.
		if c.DecisionRate <= 0.5 || c.DecisionRate > 1 {
			t.Errorf("cell %s: decision rate %v outside (0.5, 1]", c.Cell, c.DecisionRate)
		}
		if c.MeanNetRetransmits == 0 {
			t.Errorf("cell %s: no retransmissions — was the model attached?", c.Cell)
		}
		if c.LatencyCount == 0 {
			t.Errorf("cell %s: empty per-decision latency histogram", c.Cell)
		}
	}
}

// TestCampaignLossy: raw loss degrades gracefully — safety violations
// stay zero while drops are nonzero, and stall/decision rates quantify
// (rather than fail on) the broken liveness.
func TestCampaignLossy(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 4
	}
	camp, err := NewCampaign(
		WithTopologies("grid"),
		WithRegimes("lossy"),
		WithSeedRange(1, seeds),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Errors > 0 {
		t.Fatalf("lossy campaign errored %d times", rep.Totals.Errors)
	}
	if rep.Totals.Violations > 0 {
		t.Fatalf("lossy campaign: %d safety violations", rep.Totals.Violations)
	}
	c := rep.CellByKey(CampaignCellKey{Topology: "grid", Regime: "lossy", Engine: "sim"})
	if c == nil {
		t.Fatal("lossy cell missing")
	}
	if c.MeanNetDropped == 0 {
		t.Error("raw loss dropped nothing — was the model attached?")
	}
	if c.DecisionRate <= 0 || c.DecisionRate > 1 {
		t.Errorf("decision rate %v outside (0, 1]", c.DecisionRate)
	}
	if c.AgreementRate != 1.0 {
		t.Errorf("sim agreement %v, want 1.0 (raw loss is still deterministic)", c.AgreementRate)
	}
}

// TestCampaignUpgrade: the rolling-upgrade regime produces decisions (the
// border of the marked zone agrees on its extent) on both engines,
// deterministically on the simulator, with no checker or stall metrics
// (crash ground truth does not apply to marks).
func TestCampaignUpgrade(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	engines := []string{"sim", "live"}
	if testing.Short() {
		engines = []string{"sim"}
	}
	camp, err := NewCampaign(
		WithTopologies("grid"),
		WithRegimes("upgrade"),
		WithCampaignEngines(engines...),
		WithSeedRange(1, seeds),
		WithRepeats(2),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("unhealthy upgrade campaign: %v", err)
	}
	for _, c := range rep.Cells {
		if c.MeanDecisions == 0 {
			t.Errorf("cell %s: rolling upgrade decided nothing", c.Cell)
		}
		if c.Violations != 0 {
			t.Errorf("cell %s: %d violations counted without a checker", c.Cell, c.Violations)
		}
		if c.Cell.Engine == "sim" && c.AgreementRate != 1.0 {
			t.Errorf("cell %s: sim agreement %v, want 1.0", c.Cell, c.AgreementRate)
		}
	}
	if rep.Locality.Points != 0 {
		t.Errorf("upgrade runs leaked %d points into the locality fit", rep.Locality.Points)
	}
}

// TestCampaignSpecRoundTrip: Spec → JSON → NewCampaignFromSpec → Spec is a
// fixed point, and the rebuilt campaign expands the identical job grid —
// what a campaign server relies on when it reconstructs sweeps from
// persisted manifests.
func TestCampaignSpecRoundTrip(t *testing.T) {
	camp, err := NewCampaign(
		WithTopologies("grid", "ring", "datacenter"),
		WithRegimes("quiescent", "flaky"),
		WithCampaignEngines("sim", "live"),
		WithSeedRange(7, 5),
		WithRepeats(3),
		WithWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := camp.Spec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded CampaignSpec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewCampaignFromSpec(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.Spec(); !reflect.DeepEqual(got, spec) {
		t.Fatalf("spec not a fixed point:\n got %+v\nwant %+v", got, spec)
	}
	a, b := camp.Jobs(), rebuilt.Jobs()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rebuilt campaign expands a different grid: %d vs %d jobs", len(b), len(a))
	}
	if len(a) != 3*2*2*5*3 {
		t.Fatalf("grid has %d jobs, want %d", len(a), 3*2*2*5*3)
	}
	if rebuilt.Workers() != 2 {
		t.Fatalf("workers = %d, want 2", rebuilt.Workers())
	}

	// Validation carries over: a forged spec fails exactly like the options.
	if _, err := NewCampaignFromSpec(CampaignSpec{
		Topologies: []string{"nope"}, Regimes: []string{"quiescent"},
		Engines: []string{"sim"}, SeedStart: 1, Seeds: 1, Repeats: 1,
	}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// TestCampaignRunJob: single-job execution is deterministic (same job,
// same stats) and matches what a whole-campaign run aggregates; jobs
// outside any known grid report errors instead of panicking.
func TestCampaignRunJob(t *testing.T) {
	camp, err := NewCampaign(
		WithTopologies("grid"),
		WithRegimes("quiescent"),
		WithSeedRange(3, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	jobs := camp.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs, want 1", len(jobs))
	}
	a := camp.RunJob(context.Background(), jobs[0])
	b := camp.RunJob(context.Background(), jobs[0])
	if a.Err != "" || b.Err != "" {
		t.Fatalf("run errors: %q / %q", a.Err, b.Err)
	}
	if a.Fingerprint != b.Fingerprint || a.Messages != b.Messages || a.Decisions != b.Decisions {
		t.Fatalf("sim job not deterministic: %+v vs %+v", a, b)
	}
	if a.Decisions == 0 {
		t.Fatal("job decided nothing")
	}
	for _, bad := range []CampaignJob{
		{Cell: CampaignCellKey{Topology: "nope", Regime: "quiescent", Engine: "sim"}, Seed: 1},
		{Cell: CampaignCellKey{Topology: "grid", Regime: "nope", Engine: "sim"}, Seed: 1},
		{Cell: CampaignCellKey{Topology: "grid", Regime: "quiescent", Engine: "nope"}, Seed: 1},
	} {
		if s := camp.RunJob(context.Background(), bad); s.Err == "" {
			t.Fatalf("forged job %+v accepted", bad)
		}
	}
}
