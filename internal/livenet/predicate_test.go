package livenet

import (
	"context"
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/predicate"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// TestLivePredicateMarkedRegion runs the stable-predicate extension on the
// goroutine runtime: the block is marked live in one wave and the border
// must agree on the full marked block. Run with -race.
func TestLivePredicateMarkedRegion(t *testing.T) {
	g := graph.Grid(6, 6)
	block := graph.GridBlock(2, 2, 2)
	for i := 0; i < 5; i++ {
		rt := NewRuntime(g, predicate.Factory(core.Config{Graph: g}), Options{})
		rt.InjectAll(predicate.Mark{}, block...)
		if err := rt.WaitIdleContext(context.Background(), timeout); err != nil {
			t.Fatal(err)
		}
		rt.Stop()
		res := rt.Result()

		border := region.New(g, block).Border()
		if len(res.Decisions) != len(border) {
			t.Fatalf("iteration %d: got %d decisions, want %d",
				i, len(res.Decisions), len(border))
		}
		var val proto.Value
		for id, d := range res.Decisions {
			if d.View.Len() != len(block) {
				t.Errorf("%s decided %s, want the full block", id, d.View)
			}
			if val == "" {
				val = d.Value
			} else if val != d.Value {
				t.Errorf("value disagreement: %q vs %q", val, d.Value)
			}
		}
		for id, a := range res.Automata {
			n := a.(*predicate.Node)
			if vs := n.Violations(); len(vs) != 0 {
				t.Errorf("%s: %v", id, vs)
			}
		}
	}
}

// TestLivePredicateStaggeredMarking interleaves markings with protocol
// traffic (no quiescence waits between marks).
func TestLivePredicateStaggeredMarking(t *testing.T) {
	g := graph.Grid(6, 6)
	block := graph.GridBlock(1, 1, 3)
	for i := 0; i < 5; i++ {
		rt := NewRuntime(g, predicate.Factory(core.Config{Graph: g}), Options{})
		for _, n := range block {
			rt.InjectAll(predicate.Mark{}, n) // one wave per node, racing the gossip
		}
		if err := rt.WaitIdleContext(context.Background(), timeout); err != nil {
			t.Fatal(err)
		}
		rt.Stop()
		res := rt.Result()
		if len(res.Decisions) == 0 {
			t.Fatal("no decisions")
		}
		// Overlapping decided views must agree (predicate analogue of CD6).
		type dec struct {
			id graph.NodeID
			d  *proto.Decision
		}
		var all []dec
		for id, d := range res.Decisions {
			all = append(all, dec{id, d})
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				vi, vj := all[i].d.View, all[j].d.View
				if vi.Intersects(vj) && (!vi.Equal(vj) || all[i].d.Value != all[j].d.Value) {
					t.Errorf("overlap disagreement: %s=(%s) vs %s=(%s)",
						all[i].id, vi, all[j].id, vj)
				}
			}
		}
	}
}
