package predicate

import (
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// markAll marks every listed node at time at.
func markAll(nodes []graph.NodeID, at int64) []sim.InjectAt {
	out := make([]sim.InjectAt, len(nodes))
	for i, q := range nodes {
		out[i] = sim.InjectAt{Time: at, Node: q, Payload: Mark{}}
	}
	return out
}

func run(t *testing.T, g *graph.Graph, injections []sim.InjectAt, seed int64) *sim.Result {
	t.Helper()
	r, err := sim.NewRunner(sim.Config{
		Graph:      g,
		Factory:    Factory(core.Config{Graph: g}),
		Seed:       seed,
		Injections: injections,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertAgreement verifies the predicate analogue of CD2/CD4/CD5/CD6 by
// hand (the crash checkers don't apply: nobody crashes here).
func assertAgreement(t *testing.T, g *graph.Graph, res *sim.Result, markedSet []graph.NodeID) {
	t.Helper()
	marked := graph.ToSet(markedSet)
	for id, d := range res.Decisions {
		if marked[id] {
			t.Errorf("marked node %s decided", id)
		}
		for _, m := range d.View.Nodes() {
			if !marked[m] {
				t.Errorf("%s decided view %s containing unmarked node %s", id, d.View, m)
			}
		}
		if !d.View.OnBorder(id) {
			t.Errorf("%s decided view %s it does not border", id, d.View)
		}
	}
	// Overlapping decided views must be equal, with equal values.
	type dv struct {
		node graph.NodeID
		d    *proto.Decision
	}
	var all []dv
	for id, d := range res.Decisions {
		all = append(all, dv{id, d})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			vi, vj := all[i].d.View, all[j].d.View
			if vi.Intersects(vj) {
				if !vi.Equal(vj) || all[i].d.Value != all[j].d.Value {
					t.Errorf("overlap disagreement: %s=(%s,%s) vs %s=(%s,%s)",
						all[i].node, vi, all[i].d.Value, all[j].node, vj, all[j].d.Value)
				}
			}
		}
	}
	for _, a := range res.Automata {
		n := a.(*Node)
		for _, v := range n.Violations() {
			t.Errorf("%s: internal violation: %s", n.ID(), v)
		}
	}
}

func TestMarkedRegionAgreement(t *testing.T) {
	g := graph.Grid(6, 6)
	block := graph.GridBlock(2, 2, 2)
	res := run(t, g, markAll(block, 10), 1)
	assertAgreement(t, g, res, block)

	border := region.New(g, block).Border()
	if len(res.Decisions) != len(border) {
		t.Fatalf("got %d decisions, want %d (full border)", len(res.Decisions), len(border))
	}
	want := region.New(g, block)
	for id, d := range res.Decisions {
		if !d.View.Equal(want) {
			t.Errorf("%s decided %s, want %s", id, d.View, want)
		}
	}
}

func TestCooperativeDetectionReachesFullBorder(t *testing.T) {
	// A 1×4 marked stripe: border nodes at the far ends are not adjacent
	// to most of the stripe and rely on in-region relaying to learn its
	// extent.
	g := graph.Grid(5, 8)
	stripe := []graph.NodeID{
		graph.GridID(2, 2), graph.GridID(2, 3), graph.GridID(2, 4), graph.GridID(2, 5),
	}
	res := run(t, g, markAll(stripe, 10), 2)
	assertAgreement(t, g, res, stripe)
	want := region.New(g, stripe)
	for _, end := range []graph.NodeID{graph.GridID(2, 1), graph.GridID(2, 6)} {
		d := res.Decisions[end]
		if d == nil {
			t.Fatalf("end border node %s did not decide", end)
		}
		if !d.View.Equal(want) {
			t.Errorf("%s decided %s, want the full stripe", end, d.View)
		}
	}
}

func TestStaggeredMarking(t *testing.T) {
	g := graph.Grid(6, 6)
	block := graph.GridBlock(1, 1, 3)
	var marks []sim.InjectAt
	for i, n := range block {
		marks = append(marks, sim.InjectAt{Time: int64(10 + 7*i), Node: n, Payload: Mark{}})
	}
	for seed := int64(0); seed < 10; seed++ {
		res := run(t, g, marks, seed)
		assertAgreement(t, g, res, block)
		if len(res.Decisions) == 0 {
			t.Fatal("no decisions")
		}
	}
}

func TestTwoDisjointMarkedRegions(t *testing.T) {
	g := graph.Grid(8, 8)
	r1 := graph.GridBlock(1, 1, 2)
	r2 := graph.GridBlock(5, 5, 2)
	res := run(t, g, append(markAll(r1, 10), markAll(r2, 10)...), 3)
	assertAgreement(t, g, res, append(append([]graph.NodeID{}, r1...), r2...))
	b1, b2 := region.New(g, r1).Border(), region.New(g, r2).Border()
	if len(res.Decisions) != len(b1)+len(b2) {
		t.Fatalf("got %d decisions, want %d", len(res.Decisions), len(b1)+len(b2))
	}
}

func TestMarkedNodesGossipOnly(t *testing.T) {
	// Verify locality of the predicate variant: all traffic stays within
	// the marked region and its border (announcements one hop out,
	// protocol among border nodes).
	g := graph.Grid(8, 8)
	block := graph.GridBlock(3, 3, 2)
	res := run(t, g, markAll(block, 10), 4)

	allowed := graph.ToSet(append(append([]graph.NodeID{}, block...), region.New(g, block).Border()...))
	for _, e := range res.Events {
		if e.Kind != trace.KindSend {
			continue
		}
		if !allowed[e.Node] || !allowed[e.Peer] {
			t.Errorf("message %s→%s leaves region ∪ border", e.Node, e.Peer)
		}
	}
}

func TestMarkIdempotent(t *testing.T) {
	g := graph.Grid(4, 4)
	n := New(coreCfg(g, graph.GridID(1, 1)))
	n.Start()
	eff1 := n.OnMessage(n.ID(), Mark{})
	if len(eff1.Sends) == 0 {
		t.Fatal("marking should announce")
	}
	eff2 := n.OnMessage(n.ID(), Mark{})
	if !eff2.IsZero() {
		t.Error("second mark should be a no-op")
	}
	if !n.Marked() {
		t.Error("Marked() should report true")
	}
	if n.Decided() != nil {
		t.Error("marked nodes never decide")
	}
}

func TestAnnounceRelayGrowsKnowledge(t *testing.T) {
	g := graph.Line(4) // r0 - r1 - r2 - r3
	n := New(coreCfg(g, graph.RingID(1)))
	n.Start()
	n.OnMessage(n.ID(), Mark{})
	eff := n.OnMessage(graph.RingID(2), Announce{Marked: []graph.NodeID{graph.RingID(2), graph.RingID(3)}})
	if len(eff.Sends) == 0 {
		t.Fatal("marked node must relay new knowledge")
	}
	ann := eff.Sends[0].Payload.(Announce)
	if len(ann.Marked) != 3 {
		t.Errorf("relayed set %v, want all three marked nodes", ann.Marked)
	}
	// Re-hearing the same set: no relay.
	eff = n.OnMessage(graph.RingID(2), Announce{Marked: []graph.NodeID{graph.RingID(2)}})
	if !eff.IsZero() {
		t.Error("stale announce should not re-flood")
	}
}

func TestWireSizes(t *testing.T) {
	if (Mark{}).WireSize() <= 0 || (Mark{}).Kind() == "" {
		t.Error("Mark payload metadata")
	}
	a := Announce{Marked: []graph.NodeID{"a", "b"}}
	if a.WireSize() <= (Announce{}).WireSize() {
		t.Error("announce size should grow with the set")
	}
	if a.Kind() != "predicate.announce" {
		t.Error("Kind")
	}
}

func coreCfg(g *graph.Graph, id graph.NodeID) core.Config {
	return core.Config{ID: id, Graph: g}
}
