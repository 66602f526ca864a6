package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestBuilderBasics(t *testing.T) {
	g := NewBuilder().
		AddEdge("a", "b").
		AddEdge("b", "c").
		AddNode("d").
		Build()
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	// a-b is in both rows (symmetric); a-c is in neither.
	if got := g.Neighbors("a"); !slices.Equal(got, []NodeID{"b"}) {
		t.Errorf("Neighbors(a) = %v, want [b]", got)
	}
	if got := g.Neighbors("b"); !slices.Equal(got, []NodeID{"a", "c"}) {
		t.Errorf("Neighbors(b) = %v, want [a c]", got)
	}
	if d := g.DegreeOf(g.Index("d")); d != 0 {
		t.Errorf("DegreeOf(d) = %d, want 0", d)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := NewBuilder().AddEdge("a", "a").Build()
	if n := g.Len(); n != 1 {
		t.Errorf("self-loop left %d nodes, want 1", n)
	}
	if e := g.NumEdges(); e != 0 {
		t.Errorf("self-loop created %d edges", e)
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	g := NewBuilder().AddEdge("a", "b").AddEdge("b", "a").AddEdge("a", "b").Build()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestNodesSorted(t *testing.T) {
	g := NewBuilder().AddEdge("z", "m").AddEdge("m", "a").Build()
	nodes := g.Nodes()
	if !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i] < nodes[j] }) {
		t.Errorf("Nodes() not sorted: %v", nodes)
	}
	for _, n := range nodes {
		nbrs := g.Neighbors(n)
		if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
			t.Errorf("Neighbors(%s) not sorted: %v", n, nbrs)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := Grid(4, 4)
	s := ToSet([]NodeID{
		GridID(0, 0), GridID(0, 1), // component 1
		GridID(2, 2), // component 2
		GridID(3, 0), // component 3
	})
	comps := g.ConnectedComponents(s)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 2 {
		t.Errorf("first component should be the pair, got %v", comps[0])
	}
}

func TestConnectedComponentsPartitionProperty(t *testing.T) {
	g := ErdosRenyi(40, 0.05, 99)
	rng := rand.New(rand.NewSource(2))
	nodes := g.Nodes()
	for trial := 0; trial < 50; trial++ {
		s := map[NodeID]bool{}
		for i := 0; i < rng.Intn(15); i++ {
			s[nodes[rng.Intn(len(nodes))]] = true
		}
		comps := g.ConnectedComponents(s)
		seen := map[NodeID]int{}
		total := 0
		for ci, comp := range comps {
			if !g.IsConnectedSubset(ToSet(comp)) {
				t.Fatalf("component %v not connected", comp)
			}
			for _, n := range comp {
				if prev, dup := seen[n]; dup {
					t.Fatalf("node %s in components %d and %d", n, prev, ci)
				}
				seen[n] = ci
				if !s[n] {
					t.Fatalf("node %s not in input set", n)
				}
				total++
			}
		}
		if total != len(s) {
			t.Fatalf("components cover %d nodes, set has %d", total, len(s))
		}
		// Maximality: no edge between two distinct components.
		for u, cu := range seen {
			for _, v := range g.Neighbors(u) {
				if cv, ok := seen[v]; ok && cv != cu {
					t.Fatalf("edge %s-%s crosses components", u, v)
				}
			}
		}
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4)
	if g.Len() != 12 {
		t.Fatalf("Len = %d, want 12", g.Len())
	}
	// Interior node has 4 neighbours, corner 2.
	if d := g.DegreeOf(g.Index(GridID(1, 1))); d != 4 {
		t.Errorf("interior degree = %d, want 4", d)
	}
	if d := g.DegreeOf(g.Index(GridID(0, 0))); d != 2 {
		t.Errorf("corner degree = %d, want 2", d)
	}
	if g.NumEdges() != 3*3+2*4 {
		t.Errorf("NumEdges = %d, want 17", g.NumEdges())
	}
}

func TestTorusIsRegular(t *testing.T) {
	g := Torus(4, 5)
	for i, n := range g.Nodes() {
		if d := g.DegreeOf(int32(i)); d != 4 {
			t.Fatalf("torus node %s has degree %d, want 4", n, d)
		}
	}
}

func TestRingAndLine(t *testing.T) {
	r := Ring(6)
	for i := range r.Nodes() {
		if d := r.DegreeOf(int32(i)); d != 2 {
			t.Fatalf("ring degree %d", d)
		}
	}
	l := Line(6)
	deg1 := 0
	for i := range l.Nodes() {
		if l.DegreeOf(int32(i)) == 1 {
			deg1++
		}
	}
	if deg1 != 2 {
		t.Errorf("line should have exactly 2 endpoints, got %d", deg1)
	}
}

func TestCompleteAndStar(t *testing.T) {
	k := Complete(5)
	if k.NumEdges() != 10 {
		t.Errorf("K5 edges = %d, want 10", k.NumEdges())
	}
	s := Star(5)
	if d := s.DegreeOf(s.Index(RingID(0))); d != 4 {
		t.Errorf("hub degree = %d, want 4", d)
	}
}

func TestTreeConnectedAcyclic(t *testing.T) {
	g := Tree(15, 2)
	if g.NumEdges() != 14 {
		t.Errorf("tree edges = %d, want n-1 = 14", g.NumEdges())
	}
	if !g.IsConnectedSubset(ToSet(g.Nodes())) {
		t.Error("tree not connected")
	}
}

func TestRandomGraphsConnected(t *testing.T) {
	cases := []*Graph{
		ErdosRenyi(50, 0.02, 1),
		SmallWorld(50, 4, 0.3, 2),
		RandomGeometric(50, 0.15, 3),
		Clustered(3, 10, 2, 0.3, 4),
		Chord(32),
	}
	for i, g := range cases {
		if !g.IsConnectedSubset(ToSet(g.Nodes())) {
			t.Errorf("case %d: generated graph not connected", i)
		}
	}
}

// TestRandomGeometricNegativeRadius: no pair lies within a negative
// radius, so only the chain's n edges remain.
func TestRandomGeometricNegativeRadius(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if e := RandomGeometric(30, -0.5, seed).NumEdges(); e != 30 {
			t.Errorf("RandomGeometric(30, -0.5, %d) has %d edges, want the chain's 30", seed, e)
		}
	}
}

// TestGridAllocatesOneAdjacency bounds what building a 256² grid
// allocates per node: the IDs, the ID map, the builder's edge and arc
// lists and the CSR arrays come to about 200 B. A second copy of the
// neighbour rows as 16-byte NodeIDs would add 64 B per node at degree 4.
func TestGridAllocatesOneAdjacency(t *testing.T) {
	const side, bound = 256, 232
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := Grid(side, side)
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.Len())
	t.Logf("Grid(%d, %d) allocates %.1f B per node", side, side, perNode)
	if perNode > bound {
		t.Errorf("Grid(%d, %d) allocates %.1f B per node, bound %d", side, side, perNode, bound)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ErdosRenyi(30, 0.1, 7)
	b := ErdosRenyi(30, 0.1, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different graphs: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for _, n := range a.Nodes() {
		na, nb := a.Neighbors(n), b.Neighbors(n)
		if len(na) != len(nb) {
			t.Fatalf("node %s: %v vs %v", n, na, nb)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %s: %v vs %v", n, na, nb)
			}
		}
	}
}

func TestGridBlockAndCenterBlock(t *testing.T) {
	b := GridBlock(1, 2, 2)
	want := []NodeID{GridID(1, 2), GridID(1, 3), GridID(2, 2), GridID(2, 3)}
	if len(b) != 4 {
		t.Fatalf("block size %d", len(b))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("block[%d] = %s, want %s", i, b[i], want[i])
		}
	}
	g := Grid(9, 9)
	cb := CenterBlock(9, 9, 3)
	if !g.IsConnectedSubset(ToSet(cb)) {
		t.Error("centre block not connected")
	}
}

func TestDiameterAndDegreeStats(t *testing.T) {
	l := Line(5)
	if d := l.Diameter(); d != 4 {
		t.Errorf("line diameter = %d, want 4", d)
	}
	k := Complete(6)
	if d := k.Diameter(); d != 1 {
		t.Errorf("K6 diameter = %d, want 1", d)
	}
	for i := range k.Nodes() {
		if d := k.DegreeOf(int32(i)); d != 5 {
			t.Errorf("K6 node %d degree = %d, want 5", i, d)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := NewBuilder().AddEdge("a", "b").Build()
	dot := g.DOT("test", map[NodeID]bool{"a": true})
	for _, frag := range []string{`graph "test"`, `"a" [style=filled`, `"a" -- "b"`} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(60, 2, 7)
	if g.Len() != 60 {
		t.Fatalf("Len = %d", g.Len())
	}
	if !g.IsConnectedSubset(ToSet(g.Nodes())) {
		t.Error("BA graph should be connected")
	}
	// Preferential attachment yields hubs: max degree well above m.
	hub := 0
	for i := range g.Nodes() {
		hub = max(hub, g.DegreeOf(int32(i)))
	}
	if hub < 5 {
		t.Errorf("expected hubs, max degree %d", hub)
	}
	// Determinism.
	h := BarabasiAlbert(60, 2, 7)
	if g.NumEdges() != h.NumEdges() {
		t.Error("same seed, different graphs")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.Len() != 16 {
		t.Fatalf("Len = %d, want 16", g.Len())
	}
	for i, n := range g.Nodes() {
		if d := g.DegreeOf(int32(i)); d != 4 {
			t.Fatalf("node %s degree %d, want 4", n, d)
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
}

// TestGeneratorsAcceptNonPositiveSizes calls every exported generator with
// each size argument at −1 and 0: the result may be empty or partial, but
// no generator may panic.
func TestGeneratorsAcceptNonPositiveSizes(t *testing.T) {
	for _, n := range []int{-1, 0} {
		for name, gen := range map[string]func() any{
			"Grid":               func() any { return Grid(n, 3) },
			"Grid/cols":          func() any { return Grid(3, n) },
			"Torus":              func() any { return Torus(n, 3) },
			"Torus/cols":         func() any { return Torus(3, n) },
			"Ring":               func() any { return Ring(n) },
			"Chord":              func() any { return Chord(n) },
			"Line":               func() any { return Line(n) },
			"Complete":           func() any { return Complete(n) },
			"Star":               func() any { return Star(n) },
			"Tree":               func() any { return Tree(n, 2) },
			"Tree/arity":         func() any { return Tree(5, n) },
			"ErdosRenyi":         func() any { return ErdosRenyi(n, 0.5, 1) },
			"SmallWorld":         func() any { return SmallWorld(n, 4, 0.3, 1) },
			"SmallWorld/k":       func() any { return SmallWorld(8, n, 0.3, 1) },
			"RandomGeometric":    func() any { return RandomGeometric(n, 0.5, 1) },
			"Clustered":          func() any { return Clustered(n, 4, 1, 0.5, 1) },
			"Clustered/size":     func() any { return Clustered(3, n, 1, 0.5, 1) },
			"Clustered/bridges":  func() any { return Clustered(3, 4, n, 0.5, 1) },
			"BarabasiAlbert":     func() any { return BarabasiAlbert(n, 2, 1) },
			"BarabasiAlbert/m":   func() any { return BarabasiAlbert(8, n, 1) },
			"Hypercube":          func() any { return Hypercube(n) },
			"GridBlock":          func() any { return GridBlock(0, 0, n) },
			"CenterBlock":        func() any { return CenterBlock(4, 4, n) },
			"CenterBlock/extent": func() any { return CenterBlock(n, n, 2) },
		} {
			t.Run(fmt.Sprintf("%s(%d)", name, n), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				gen()
			})
		}
	}
}
