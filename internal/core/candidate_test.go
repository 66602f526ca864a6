package core

import (
	"math/rand"
	"slices"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// The view construction of lines 8–11 is deferred (see pendingView); these
// tests hold it against the paper's eager form on random crash orders.
//
// Three things must agree after every event:
//   - model: lines 8–11 as printed, recomputing every connected component
//     of the crashed set and taking the highest-ranked of them;
//   - eager: a core.Node whose MaxView() is read after every event, so it
//     never carries a pending component across events;
//   - lazy: a core.Node nobody reads — inspected only through a Clone, so
//     its own pending component survives until the protocol consumes it.
type candidateModel struct {
	g       *graph.Graph
	crashed map[graph.NodeID]bool
	maxView region.Region
	cand    region.Region
}

func (m *candidateModel) onCrash(q graph.NodeID) {
	m.crashed[q] = true
	best := region.Empty // line 8: maxRankedRegion of the components
	for _, c := range m.g.ConnectedComponents(m.crashed) {
		if r := region.New(m.g, c); region.Less(&best, &r) {
			best = r
		}
	}
	if region.Less(&m.maxView, &best) { // line 9
		m.maxView, m.cand = best, best // lines 10–11
	}
}

// sameRegion compares everything a proposal exposes: members, border, key.
func sameRegion(a, b region.Region) bool {
	return a.Key() == b.Key() && a.Hash() == b.Hash() &&
		slices.Equal(a.Nodes(), b.Nodes()) && slices.Equal(a.Border(), b.Border())
}

// forceReset builds the message that makes n abandon its current proposal:
// a round-1 vector in which every other participant rejects, so every
// round completes through known rejectors and the final row is not
// all-accept.
func forceReset(n *Node) (graph.NodeID, *Message) {
	vp := n.CurrentView()
	o := ops{}
	var from graph.NodeID
	for _, q := range vp.Border() {
		if q != n.ID() {
			o[q] = reject
			from = q
		}
	}
	return from, message(1, vp, from, o)
}

func runCandidateProperty(t *testing.T, g *graph.Graph, seed int64) (ties, merges, deferred, resets int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	me := g.Nodes()[rng.Intn(g.Len())]
	lazy, eager := New(Config{ID: me, Graph: g}), New(Config{ID: me, Graph: g})
	model := &candidateModel{g: g, crashed: map[graph.NodeID]bool{}}

	// The failure detector only reports monitored nodes, which keeps every
	// crashed component adjacent to me (the invariant that makes proposed
	// views self-bordered).
	var monitored []graph.NodeID
	monitored = append(monitored, monitorIDs(g, lazy.Start())...)
	eager.Start()

	check := func(step int, what string, effLazy, effEager proto.Effects) {
		t.Helper()
		for _, eff := range []proto.Effects{effLazy, effEager} {
			if len(eff.Proposed) > 1 {
				t.Fatalf("seed %d step %d (%s): %d proposals in one activation", seed, step, what, len(eff.Proposed))
			}
			for _, p := range eff.Proposed {
				if !sameRegion(p, model.cand) {
					t.Fatalf("seed %d step %d (%s): proposed %s, lines 8–11 give candidate %s", seed, step, what, p, model.cand)
				}
			}
		}
		if len(effLazy.Proposed) != len(effEager.Proposed) || effLazy.Resets != effEager.Resets ||
			(effLazy.Decision == nil) != (effEager.Decision == nil) {
			t.Fatalf("seed %d step %d (%s): lazy %+v, eager %+v", seed, step, what, effLazy, effEager)
		}
		if len(effLazy.Proposed) == 1 {
			model.cand = region.Empty // line 13 consumes it
		}
		if got := eager.MaxView(); !sameRegion(got, model.maxView) {
			t.Fatalf("seed %d step %d (%s): eager MaxView %s, model %s", seed, step, what, got, model.maxView)
		}
		if lazy.st != nil && lazy.st.pending.size > 0 {
			deferred++
		}
		// Reading through a clone leaves lazy's pending component in place
		// and checks that Clone carries it.
		view := lazy.Clone()
		if got, want := view.Fingerprint(), eager.Fingerprint(); got != want {
			t.Fatalf("seed %d step %d (%s): fingerprints differ\n lazy %s\neager %s", seed, step, what, got, want)
		}
		if got := view.MaxView(); !sameRegion(got, model.maxView) {
			t.Fatalf("seed %d step %d (%s): lazy MaxView %s, model %s", seed, step, what, got, model.maxView)
		}
	}

	for step := 0; step < 40; step++ {
		if lazy.HasProposed() && lazy.Decided() == nil && rng.Intn(4) == 0 {
			from, msg := forceReset(lazy)
			effLazy, effEager := lazy.OnMessage(from, msg), eager.OnMessage(from, msg)
			if effLazy.Resets != 1 {
				t.Fatalf("seed %d step %d: forced reset did not reset: %+v", seed, step, effLazy)
			}
			resets++
			check(step, "reset", effLazy, effEager)
			continue
		}
		var alive []graph.NodeID
		for _, q := range monitored {
			if !model.crashed[q] {
				alive = append(alive, q)
			}
		}
		if len(alive) == 0 {
			break
		}
		q := alive[rng.Intn(len(alive))]
		compsBefore, maxBefore := len(g.ConnectedComponents(model.crashed)), model.maxView.Len()
		model.onCrash(q)
		comps := g.ConnectedComponents(model.crashed)
		if len(comps) < compsBefore {
			merges++
		}
		for _, c := range comps {
			if len(c) == maxBefore && borderPos(c, q) >= 0 { // components are sorted
				ties++
			}
		}
		effLazy := lazy.OnCrash(q)
		monitored = append(monitored, monitorIDs(g, effLazy)...)
		check(step, "crash "+string(q), effLazy, eager.OnCrash(q))
	}
	if v := append(lazy.Violations(), eager.Violations()...); len(v) != 0 {
		t.Fatalf("seed %d: violations %v", seed, v)
	}
	return ties, merges, deferred, resets
}

func TestDeferredCandidateMatchesEagerReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(6, 6)},
		{"ring", graph.Ring(9)},
		{"er", graph.ErdosRenyi(24, 0.15, 7)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			var ties, merges, deferred, resets int
			for seed := int64(0); seed < 150; seed++ {
				a, b, c, d := runCandidateProperty(t, tc.g, seed)
				ties, merges, deferred, resets = ties+a, merges+b, deferred+c, resets+d
			}
			// The property is only worth its name if the hard cases occur.
			t.Logf("%d cardinality ties, %d merges, %d steps ending with a pending component, %d resets", ties, merges, deferred, resets)
			if ties == 0 || merges == 0 || deferred == 0 || resets == 0 {
				t.Error("coverage hole: one of the counts above is zero")
			}
		})
	}
}
