package sim

import (
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

func coreFactory(g *graph.Graph) proto.Factory {
	return func(id graph.NodeID) proto.Automaton {
		return core.New(core.Config{ID: id, Graph: g})
	}
}

// TestSmokeSingleCrash crashes one interior node of a grid and expects all
// four neighbours to decide on the singleton region with the same value.
func TestSmokeSingleCrash(t *testing.T) {
	g := graph.Grid(5, 5)
	victim := graph.GridID(2, 2)
	r, err := NewRunner(Config{
		Graph:   g,
		Factory: coreFactory(g),
		Seed:    1,
		Crashes: []CrashAt{{Time: 100, Node: victim}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	border := g.Neighbors(victim)
	if len(res.Decisions) != len(border) {
		for _, e := range res.Events {
			t.Log(e)
		}
		t.Fatalf("got %d decisions, want %d (border of %s)", len(res.Decisions), len(border), victim)
	}
	var val proto.Value
	for _, d := range res.SortedDecisions() {
		if d.Decision.View.Len() != 1 || !d.Decision.View.Contains(victim) {
			t.Errorf("%s decided view %s, want {%s}", d.Node, d.Decision.View, victim)
		}
		if val == "" {
			val = d.Decision.Value
		} else if d.Decision.Value != val {
			t.Errorf("%s decided value %q, others %q", d.Node, d.Decision.Value, val)
		}
	}
}

// TestSmokeBlockCrash crashes a 2×2 block simultaneously and expects every
// border node of the block to decide on the full block: no proper
// sub-region can assemble an all-accept vector because its border always
// contains a block member that died before it could propose.
func TestSmokeBlockCrash(t *testing.T) {
	g := graph.Grid(6, 6)
	block := graph.GridBlock(2, 2, 2)
	crashes := make([]CrashAt, len(block))
	for i, n := range block {
		crashes[i] = CrashAt{Time: 50, Node: n}
	}
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 7, Crashes: crashes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	border := region.New(g, block).Border()
	if len(res.Decisions) != len(border) {
		for _, e := range res.Events {
			t.Log(e)
		}
		t.Fatalf("got %d decisions, want %d", len(res.Decisions), len(border))
	}
	for _, d := range res.SortedDecisions() {
		if d.Decision.View.Len() != len(block) {
			t.Errorf("%s decided view %s, want the 2×2 block", d.Node, d.Decision.View)
		}
	}
}
