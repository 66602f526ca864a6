package scenario

import (
	"testing"
)

// The experiment functions feed cmd/cliffedge-bench; these tests run reduced
// variants and assert the claims the tables are meant to demonstrate, so a
// regression in the protocol shows up as a broken claim, not just a
// changed number.

func TestExperimentT1LocalityClaim(t *testing.T) {
	rows, err := ExperimentT1([]int{10, 20, 40}, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Cliff-edge cost must be independent of system size: the workload is
	// identical (same 3×3 block, same seed), so messages should be in the
	// same ballpark across N. Allow 2× slack for border-shape effects.
	base := rows[0].CliffMsgs
	for _, r := range rows {
		if r.CliffMsgs > 2*base || base > 2*r.CliffMsgs {
			t.Errorf("locality broken: N=%d cost %d vs N=%d cost %d",
				rows[0].N, base, r.N, r.CliffMsgs)
		}
		if r.CliffParticipants > 16 {
			t.Errorf("N=%d: %d participants; only the block border should act",
				r.N, r.CliffParticipants)
		}
	}
	// The global baseline must grow superlinearly and dwarf the local cost.
	if !rows[0].GlobalSkipped && rows[0].GlobalMsgs < 10*rows[0].CliffMsgs {
		t.Errorf("global baseline suspiciously cheap: %d vs cliff %d",
			rows[0].GlobalMsgs, rows[0].CliffMsgs)
	}
	if rows[1].GlobalSkipped {
		t.Fatal("N=400 global run should not be skipped")
	}
	if rows[1].GlobalMsgs <= 3*rows[0].GlobalMsgs {
		t.Errorf("global cost should grow ~quadratically: N=100→%d, N=400→%d",
			rows[0].GlobalMsgs, rows[1].GlobalMsgs)
	}
	if !rows[2].GlobalSkipped {
		t.Error("N=1600 global run should be skipped at cap 400")
	}
}

func TestExperimentT2CostShape(t *testing.T) {
	rows, err := ExperimentT2(16, []int{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Decisions != r.Border {
			t.Errorf("k=%d: %d decisions, want full border %d", r.K, r.Decisions, r.Border)
		}
		// Rounds scale with the border (uniform flooding runs |B| rounds;
		// sub-view instances can push MaxRound slightly above).
		if r.MaxRound < r.Border {
			t.Errorf("k=%d: max round %d below border size %d", r.K, r.MaxRound, r.Border)
		}
		if i > 0 && r.Msgs <= rows[i-1].Msgs {
			t.Errorf("cost must grow with region size: k=%d msgs %d vs k=%d msgs %d",
				r.K, r.Msgs, rows[i-1].K, rows[i-1].Msgs)
		}
	}
}

func TestExperimentT3LatencyMonotone(t *testing.T) {
	rows, err := ExperimentT3([]int64{2, 50}, []int64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].DecideTime <= rows[0].DecideTime {
		t.Errorf("slower network should delay decisions: %d vs %d",
			rows[0].DecideTime, rows[1].DecideTime)
	}
}

func TestExperimentT4AblationClaim(t *testing.T) {
	rows, err := ExperimentT4(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]T4Row{}
	for _, r := range rows {
		key := r.Scenario
		if r.Arbitration {
			key += "+arb"
		}
		byKey[key] = r
	}
	for _, scenarioName := range []string{"fig2-adjacent-domains", "random-2regions-grid10"} {
		with := byKey[scenarioName+"+arb"]
		without := byKey[scenarioName]
		if with.ClustersDecided != with.ClustersTotal {
			t.Errorf("%s with arbitration: %d/%d clusters decided",
				scenarioName, with.ClustersDecided, with.ClustersTotal)
		}
		if with.SafetyViolations != 0 || without.SafetyViolations != 0 {
			t.Errorf("%s: safety violations with=%d without=%d",
				scenarioName, with.SafetyViolations, without.SafetyViolations)
		}
		// The robust ablation claim is liveness coverage: without
		// arbitration some clusters deadlock. (Total decision counts are
		// noisy at low run counts — the ablation can produce *more* small
		// disjoint decisions while covering fewer clusters.)
		if without.ClustersDecided > with.ClustersDecided {
			t.Errorf("%s: ablation covered more clusters than the full protocol: %d vs %d",
				scenarioName, without.ClustersDecided, with.ClustersDecided)
		}
	}
	// The fig2 workload is conflict-heavy by construction; there the
	// decision count itself must drop.
	fig2With, fig2Without := byKey["fig2-adjacent-domains+arb"], byKey["fig2-adjacent-domains"]
	if fig2Without.Decisions >= fig2With.Decisions {
		t.Errorf("fig2: ablation should lose decisions: with=%d without=%d",
			fig2With.Decisions, fig2Without.Decisions)
	}
}

func TestExperimentT5CascadeShape(t *testing.T) {
	rows, err := ExperimentT5([]int{0, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Proposals <= rows[0].Proposals {
		t.Errorf("deeper cascades must force more proposals: depth0=%d depth4=%d",
			rows[0].Proposals, rows[1].Proposals)
	}
	if rows[0].Decisions == 0 || rows[1].Decisions == 0 {
		t.Error("cascades must still reach decisions")
	}
}

func TestExperimentT6PredicateClaim(t *testing.T) {
	rows, err := ExperimentT6(12, []int{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Decisions != r.Border {
			t.Errorf("k=%d: %d decisions, want %d", r.K, r.Decisions, r.Border)
		}
		if i > 0 && r.Msgs <= rows[i-1].Msgs {
			t.Error("predicate cost must grow with region size")
		}
		if r.AnnounceMsg == 0 {
			t.Error("cooperative detection must produce announcements")
		}
	}
}

func TestExperimentT7UniformityClaim(t *testing.T) {
	rows, err := ExperimentT7(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Mode != "uniform-|B|" || rows[0].CD5Violations != 0 {
		t.Errorf("corrected rounds must never violate CD5: %+v", rows[0])
	}
	if rows[1].CD5Violations == 0 {
		t.Errorf("literal rounds should exhibit the CD5 race in 60 schedules (flaky only if the window moved): %+v", rows[1])
	}
}

func TestExperimentMCClaim(t *testing.T) {
	rows, err := ExperimentMC()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Truncated {
			t.Errorf("%s: exploration truncated", r.Scenario)
		}
		if r.Literal {
			if r.Violations == 0 {
				t.Errorf("%s: literal rounds should violate CD5", r.Scenario)
			}
		} else if r.Violations != 0 {
			t.Errorf("%s: corrected protocol violated properties", r.Scenario)
		}
	}
}

func TestExperimentFigures(t *testing.T) {
	f1a, err := ExperimentF1a(3)
	if err != nil {
		t.Fatal(err)
	}
	if f1a.CrossHemisphere != 0 {
		t.Errorf("F1a: %d cross-hemisphere messages", f1a.CrossHemisphere)
	}
	if len(f1a.DecidersF1) != 4 || len(f1a.DecidersF2) != 5 {
		t.Errorf("F1a deciders: F1=%v F2=%v", f1a.DecidersF1, f1a.DecidersF2)
	}
	if !f1a.Report.Ok() {
		t.Errorf("F1a: %s", f1a.Report)
	}

	f1b, err := ExperimentF1b(10)
	if err != nil {
		t.Fatal(err)
	}
	if f1b.Violations != 0 {
		t.Errorf("F1b violations: %d", f1b.Violations)
	}
	if f1b.ConvergedF3+f1b.EarlyF1 != f1b.Seeds {
		t.Errorf("F1b outcomes don't cover all seeds: %+v", f1b)
	}

	f2, err := ExperimentF2(3)
	if err != nil {
		t.Fatal(err)
	}
	if !f2.DecidedCluster {
		t.Error("F2: cluster reached no decision")
	}
	if !f2.Report.Ok() {
		t.Errorf("F2: %s", f2.Report)
	}

	f3, err := ExperimentF3(5)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Violations != 0 {
		t.Errorf("F3 violations: %d", f3.Violations)
	}
}
