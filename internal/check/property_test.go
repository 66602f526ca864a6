package check_test

// Property-based tests for the CD1–CD7 checker: randomized protocol runs
// must produce traces the checker accepts, and targeted mutations of those
// traces — each engineered to breach exactly one property — must be
// rejected with the right property named. The checker is the foundation
// the differential and live-runtime tests stand on, so it gets its own
// adversarial suite: a checker that accepts corrupted traces would make
// every downstream "zero violations" result meaningless.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	cliffedge "cliffedge"
	"cliffedge/internal/check"
	"cliffedge/internal/graph"
	"cliffedge/internal/region"
	"cliffedge/internal/trace"
)

// genValidTrace runs a random single-wave correlated failure on a random
// topology through the deterministic simulator and returns the topology
// and the full event trace. The blob is connected, so the run converges to
// one decided domain (or a clean no-decision when the whole border dies).
func genValidTrace(t *testing.T, seed int64) (*graph.Graph, []trace.Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var topo *cliffedge.Topology
	switch rng.Intn(3) {
	case 0:
		topo = cliffedge.Grid(4+rng.Intn(3), 4+rng.Intn(3))
	case 1:
		topo = cliffedge.Ring(12 + rng.Intn(10))
	default:
		topo = cliffedge.ErdosRenyi(14+rng.Intn(8), 0.15, rng.Int63())
	}
	// Grow a connected blob of 1–4 victims.
	size := 1 + rng.Intn(4)
	start := int32(rng.Intn(topo.Len()))
	blob := []int32{start}
	in := graph.NewBitset(topo.Len())
	in.Set(start)
	for len(blob) < size {
		var cands []int32
		seen := graph.NewBitset(topo.Len())
		for _, b := range blob {
			for _, m := range topo.NeighborIndices(b) {
				if !in.Has(m) && !seen.Has(m) {
					seen.Set(m)
					cands = append(cands, m)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rng.Intn(len(cands))]
		blob = append(blob, pick)
		in.Set(pick)
	}
	victims := make([]cliffedge.NodeID, len(blob))
	for i, b := range blob {
		victims[i] = topo.ID(b)
	}
	c, err := cliffedge.New(topo, cliffedge.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), cliffedge.NewPlan().At(10).Crash(victims...))
	if err != nil {
		t.Fatal(err)
	}
	return topo, res.Events()
}

func TestCheckerAcceptsValidTraces(t *testing.T) {
	decided := 0
	for seed := int64(0); seed < 25; seed++ {
		g, events := genValidTrace(t, 7000+seed)
		rep := check.Run(g, events)
		if !rep.Ok() {
			t.Fatalf("seed %d: valid trace rejected:\n%s", seed, rep)
		}
		decided += rep.Decisions
	}
	if decided == 0 {
		t.Fatal("no generated run decided anything; generator too weak to test the checker")
	}
}

// mutator corrupts a valid trace so that the named property must be
// violated. It returns nil when the trace lacks the shape the mutation
// needs (e.g. too few deciders); the suite asserts every mutator applies
// to at least one generated trace.
type mutator struct {
	name string
	prop string
	fn   func(g *graph.Graph, events []trace.Event) []trace.Event
}

// cloneEvents deep-copies the event slice (Event is a value type).
func cloneEvents(events []trace.Event) []trace.Event {
	return append([]trace.Event(nil), events...)
}

// decideIdx lists the positions of decide events.
func decideIdx(events []trace.Event) []int {
	var out []int
	for i, e := range events {
		if e.Kind == trace.KindDecide {
			out = append(out, i)
		}
	}
	return out
}

// sharedViewDecides returns the positions of decide events for the first
// view key decided by at least two nodes.
func sharedViewDecides(events []trace.Event) []int {
	byView := make(map[string][]int)
	for i, e := range events {
		if e.Kind == trace.KindDecide {
			byView[e.View] = append(byView[e.View], i)
		}
	}
	for _, idx := range byView {
		if len(idx) >= 2 {
			return idx
		}
	}
	return nil
}

// crashedBitset reconstructs the ground-truth crash set from the trace.
func crashedBitset(g *graph.Graph, events []trace.Event) graph.Bitset {
	crashed := graph.NewBitset(g.Len())
	for _, e := range events {
		if e.Kind == trace.KindCrash {
			if i := g.Index(e.Node); i >= 0 {
				crashed.Set(i)
			}
		}
	}
	return crashed
}

var mutators = []mutator{
	{"duplicate-decide", "CD1", func(g *graph.Graph, events []trace.Event) []trace.Event {
		idx := decideIdx(events)
		if len(idx) == 0 {
			return nil
		}
		return append(cloneEvents(events), events[idx[0]])
	}},
	{"corrupt-value", "CD5", func(g *graph.Graph, events []trace.Event) []trace.Event {
		idx := sharedViewDecides(events)
		if idx == nil {
			return nil
		}
		out := cloneEvents(events)
		out[idx[0]].Value += "-corrupted"
		return out
	}},
	{"undead-member", "CD2", func(g *graph.Graph, events []trace.Event) []trace.Event {
		idx := decideIdx(events)
		if len(idx) == 0 {
			return nil
		}
		view, err := region.FromKey(g, events[idx[0]].View)
		if err != nil {
			return nil
		}
		member := view.Nodes()[0]
		out := cloneEvents(events)[:0]
		for _, e := range events {
			if e.Kind == trace.KindCrash && e.Node == member {
				continue // the decided view now contains a "correct" node
			}
			out = append(out, e)
		}
		return out
	}},
	{"outside-send", "CD3", func(g *graph.Graph, events []trace.Event) []trace.Event {
		// Find two alive nodes in no faulty domain ∪ border and forge a
		// message between them (with its delivery, so conservation holds).
		inAny := graph.NewBitset(g.Len())
		for _, dom := range region.Domains(g, crashedBitset(g, events)) {
			for _, n := range dom.Nodes() {
				inAny.Set(g.Index(n))
			}
			for _, b := range dom.Border() {
				inAny.Set(g.Index(b))
			}
		}
		var outsiders []graph.NodeID
		for i := int32(0); i < int32(g.Len()) && len(outsiders) < 2; i++ {
			if !inAny.Has(i) {
				outsiders = append(outsiders, g.ID(i))
			}
		}
		if len(outsiders) < 2 {
			return nil
		}
		out := cloneEvents(events)
		out = append(out,
			trace.Event{Kind: trace.KindSend, Node: outsiders[0], Peer: outsiders[1], Bytes: 8},
			trace.Event{Kind: trace.KindDeliver, Node: outsiders[1], Peer: outsiders[0], Bytes: 8})
		return out
	}},
	{"missing-decide", "CD4", func(g *graph.Graph, events []trace.Event) []trace.Event {
		idx := sharedViewDecides(events)
		if idx == nil {
			return nil
		}
		out := cloneEvents(events)
		return append(out[:idx[0]], out[idx[0]+1:]...)
	}},
	{"premature-decide", "CD2", func(g *graph.Graph, events []trace.Event) []trace.Event {
		idx := decideIdx(events)
		if len(idx) == 0 {
			return nil
		}
		out := cloneEvents(events)
		out[idx[0]].Time = 0 // before any member crashed
		return out
	}},
	{"repeat-propose", "LEMMA2", func(g *graph.Graph, events []trace.Event) []trace.Event {
		for _, e := range events {
			if e.Kind == trace.KindPropose {
				return append(cloneEvents(events), e) // not strictly increasing
			}
		}
		return nil
	}},
	{"lost-message", "SANITY", func(g *graph.Graph, events []trace.Event) []trace.Event {
		// A send with no matching delivery breaks conservation. Reuse an
		// existing send so the pair stays inside its faulty domain and no
		// other property is disturbed.
		for _, e := range events {
			if e.Kind == trace.KindSend {
				return append(cloneEvents(events), e)
			}
		}
		return nil
	}},
	{"decide-by-crashed", "SANITY", func(g *graph.Graph, events []trace.Event) []trace.Event {
		idx := decideIdx(events)
		if len(idx) == 0 {
			return nil
		}
		d := events[idx[0]]
		out := cloneEvents(events)[:idx[0]]
		out = append(out, trace.Event{Kind: trace.KindCrash, Node: d.Node, Time: d.Time - 1})
		return append(out, events[idx[0]:]...)
	}},
	{"no-decides", "CD7", func(g *graph.Graph, events []trace.Event) []trace.Event {
		if len(decideIdx(events)) == 0 {
			return nil
		}
		// Dropping every decide leaves the faulty cluster undecided; the
		// run still has a border (there was a decider), so CD7 must fire.
		out := cloneEvents(events)[:0]
		for _, e := range events {
			if e.Kind != trace.KindDecide {
				out = append(out, e)
			}
		}
		return out
	}},
}

func TestCheckerRejectsMutatedTraces(t *testing.T) {
	applied := make(map[string]int)
	for seed := int64(0); seed < 15; seed++ {
		g, events := genValidTrace(t, 9000+seed)
		for _, m := range mutators {
			mutated := m.fn(g, events)
			if mutated == nil {
				continue // trace lacks the shape this mutation needs
			}
			applied[m.name]++
			rep := check.Run(g, mutated)
			if rep.Ok() {
				t.Errorf("seed %d: mutation %q accepted; expected a %s violation",
					seed, m.name, m.prop)
				continue
			}
			found := false
			for _, v := range rep.Violations {
				if v.Property == m.prop {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d: mutation %q rejected without a %s violation:\n%s",
					seed, m.name, m.prop, rep)
			}
		}
	}
	for _, m := range mutators {
		if applied[m.name] == 0 {
			t.Errorf("mutation %q never applied to any generated trace; generator too weak", m.name)
		}
	}
	if testing.Verbose() {
		for _, m := range mutators {
			fmt.Printf("mutation %-18s applied %2d times\n", m.name, applied[m.name])
		}
	}
}
