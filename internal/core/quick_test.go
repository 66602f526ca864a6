package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// Property-based robustness tests: a node fed arbitrary (even adversarial)
// event sequences must never panic, never record an internal invariant
// violation caused by its own logic, and must keep its externally
// observable promises (at most one decision; strictly monotonic
// proposals). Messages here are *well-formed* (views are real crashed-able
// regions with correct borders) but arrive in arbitrary orders, with
// arbitrary opinion vectors — strictly more hostile than any real run.

// fuzzDriver feeds a node pseudo-random events derived from a seed. The
// node runs in lockstep with the reference automaton: diffs lists every
// handler call whose effects the two disagree on. With conflicts set, a
// participant's accepts carry one of two values, which a node must report
// and resolve in favour of the first it heard.
func fuzzDriver(seed int64, conflicts bool) (violations []string, decisions int, diffs []string) {
	g := graph.Grid(4, 4)
	rng := rand.New(rand.NewSource(seed))
	me := g.Nodes()[rng.Intn(g.Len())]
	// Participant q accepts with "v"+q below, the node itself included:
	// hostile as the vectors are, a participant proposes one value.
	cfg := Config{ID: me, Graph: g, Pick: reorderingPick,
		Propose: func(region.Region) proto.Value { return proto.Value("v" + me) }}
	run := new(lockstepRun)
	n := run.wrap(New(cfg), cfg)
	// The failure detector only reports crashes of monitored nodes
	// (strong accuracy); track subscriptions so the driver honours the
	// contract.
	var monitored []graph.NodeID
	track := func(eff proto.Effects) {
		monitored = append(monitored, monitorIDs(g, eff)...)
	}
	track(n.Start())

	// Candidate views: connected regions around the grid.
	var views []region.Region
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			views = append(views, region.New(g, []graph.NodeID{graph.GridID(r, c)}))
			views = append(views, region.New(g, []graph.NodeID{
				graph.GridID(r, c), graph.GridID(r+1, c)}))
			views = append(views, region.New(g, graph.GridBlock(r, c, 2)))
		}
	}
	lastProposed := region.Empty
	proposedOnce := false

	for step := 0; step < 60; step++ {
		switch rng.Intn(3) {
		case 0: // crash notification for a random monitored node
			if len(monitored) == 0 {
				continue
			}
			q := monitored[rng.Intn(len(monitored))]
			eff := n.OnCrash(q)
			track(eff)
			decisions += checkEffects(&eff, &lastProposed, &proposedOnce, &violations)
		default: // random message about a random view
			v := views[rng.Intn(len(views))]
			border := v.Border()
			if len(border) < 2 {
				continue
			}
			from := border[rng.Intn(len(border))]
			if from == me {
				continue
			}
			op := make([]opinion, len(border))
			for j, q := range border {
				switch rng.Intn(3) {
				case 0:
					op[j] = accept(proto.Value("v" + q))
					if conflicts && rng.Intn(4) == 0 {
						op[j] = accept(proto.Value("w" + q))
					}
				case 1:
					op[j] = reject
				}
			}
			round := 1 + rng.Intn(len(border))
			eff := n.OnMessage(from, messageOf(round, v, from, op))
			decisions += checkEffects(&eff, &lastProposed, &proposedOnce, &violations)
		}
	}
	violations = append(violations, n.node.Violations()...)
	run.finish()
	return violations, decisions, run.diffs
}

func checkEffects(eff *proto.Effects, last *region.Region, proposedOnce *bool, violations *[]string) int {
	for _, p := range eff.Proposed {
		if *proposedOnce && !region.Less(last, &p) {
			*violations = append(*violations, "non-monotonic proposal "+p.String())
		}
		*last = p
		*proposedOnce = true
	}
	if eff.Decision != nil {
		return 1
	}
	return 0
}

func TestQuickRandomEventSequences(t *testing.T) {
	f := func(seed int64) bool {
		violations, decisions, _ := fuzzDriver(seed, false)
		if len(violations) > 0 {
			t.Logf("seed %d: %v", seed, violations)
			return false
		}
		return decisions <= 1 // CD1: at most one decision ever
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecideOnce drives many seeds explicitly (quick.Check's random
// int64 seeds rarely collide with interesting small ones).
func TestQuickDecideOnce(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		violations, decisions, _ := fuzzDriver(seed, false)
		if len(violations) > 0 {
			t.Fatalf("seed %d: %v", seed, violations)
		}
		if decisions > 1 {
			t.Fatalf("seed %d: %d decisions", seed, decisions)
		}
	}
}

// TestQuickVectorMergeIdempotent: delivering the same message twice must
// not change the instance state (fill-⊥-only merging is idempotent).
func TestQuickVectorMergeIdempotent(t *testing.T) {
	g := graph.Grid(4, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		me := graph.GridID(1, 1)
		v := region.New(g, []graph.NodeID{graph.GridID(1, 2)})
		border := v.Border()
		op := make([]opinion, len(border))
		for j := range border {
			if rng.Intn(2) == 0 {
				op[j] = accept("x")
			}
		}
		from := border[0]
		if from == me {
			from = border[1]
		}
		msg := messageOf(1, v, from, op)

		a := New(Config{ID: me, Graph: g})
		a.Start()
		a.OnMessage(from, msg)
		once := a.Clone()
		a.OnMessage(from, msg)

		return a.Fingerprint() == once.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintDistinguishesState: different protocol states produce
// different fingerprints (sound enough for the model checker's dedup).
func TestFingerprintDistinguishesState(t *testing.T) {
	g := graph.Grid(4, 4)
	a := New(Config{ID: graph.GridID(1, 1), Graph: g})
	a.Start()
	before := a.Fingerprint()
	a.OnCrash(graph.GridID(1, 2))
	after := a.Fingerprint()
	if before == after {
		t.Error("crash must change the fingerprint")
	}
	b := a.Clone()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("clones must share fingerprints")
	}
}
