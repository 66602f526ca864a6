package graph_test

import (
	"slices"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/region"
)

// The paper's figures are checked from outside the package: their borders
// are counted by package region, which imports this one.

func TestFig1Shape(t *testing.T) {
	g, f1, f2 := graph.Fig1()
	b1 := region.New(g, f1).Border()
	if want := []graph.NodeID{"london", "madrid", "paris", "roma"}; !slices.Equal(b1, want) {
		t.Errorf("border(F1) = %v, want %v", b1, want)
	}
	b2 := region.New(g, f2).Border()
	if want := []graph.NodeID{"beijing", "portland", "sydney", "tokyo", "vancouver"}; !slices.Equal(b2, want) {
		t.Errorf("border(F2) = %v, want %v", b2, want)
	}
	// F3 = F1 ∪ {paris} is bordered by berlin but F1 is not.
	f3 := append(append([]graph.NodeID{}, f1...), "paris")
	b3 := region.New(g, f3).Border()
	if !slices.Contains(b3, "berlin") {
		t.Errorf("border(F3) = %v should contain berlin", b3)
	}
	if slices.Contains(b1, "berlin") {
		t.Errorf("border(F1) = %v should not contain berlin", b1)
	}
	if !g.IsConnectedSubset(graph.ToSet(g.Nodes())) {
		t.Error("Fig1 world graph should be connected")
	}
}

func TestFig2Shape(t *testing.T) {
	g, domains := graph.Fig2()
	if len(domains) != 4 {
		t.Fatalf("want 4 domains")
	}
	var all []graph.NodeID
	for _, d := range domains {
		all = append(all, d...)
		if !g.IsConnectedSubset(graph.ToSet(d)) {
			t.Errorf("domain %v not connected", d)
		}
	}
	// Domains are pairwise disjoint and consecutive ones share a border
	// node (adjacent in the paper's sense).
	comps := g.ConnectedComponents(graph.ToSet(all))
	if len(comps) != 4 {
		t.Fatalf("domains are not 4 disjoint regions: %d components", len(comps))
	}
	for i := 0; i+1 < len(domains); i++ {
		bi := region.New(g, domains[i])
		adjacent := slices.ContainsFunc(region.New(g, domains[i+1]).Border(), bi.OnBorder)
		if !adjacent {
			t.Errorf("domains %d and %d not adjacent", i, i+1)
		}
	}
	// All survivors form a connected graph so borders can coordinate.
	crashed := graph.ToSet(all)
	survivors := map[graph.NodeID]bool{}
	for _, n := range g.Nodes() {
		if !crashed[n] {
			survivors[n] = true
		}
	}
	if !g.IsConnectedSubset(survivors) {
		t.Error("Fig2 survivors should be connected")
	}
}
