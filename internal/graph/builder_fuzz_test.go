package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// builderIDs is the name pool FuzzBuilderMatchesReference draws from:
// short names out of sorted order, the empty ID, generator-style IDs, and
// ring IDs past the 6-digit pad, which sort before their smaller
// neighbours ("r1000000" < "r999999").
var builderIDs = []NodeID{
	"z", "a", "m", "b", "", "paris", "london",
	"r000000", "r000009", "r000010", "r999999", "r1000000", "r1000001",
	"n0000-0000", "n0000-0001", "n10000-0000", "c000-0000", "c001-0003",
}

// FuzzBuilderMatchesReference drives the Builder and the map-of-maps
// reference it replaced through one random sequence of AddNode and AddEdge
// calls — duplicates, self-loops, isolated nodes, IDs out of order — and
// requires identical graphs from both at every Build, including the graphs
// of earlier Builds after the builder was written to again. It then draws
// one generator with parameters from the seed and compares it with the
// reference generator.
func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0x00, 0x41, 0x02, 0xC0, 0x43, 0x05, 0x41, 0x01})
	f.Add(int64(3), []byte{0x4A, 0x0B, 0x4B, 0x0A, 0xC0, 0x4C, 0x0C, 0x0D, 0xC0, 0x4A, 0x0B})
	f.Add(int64(4), []byte{0x07, 0x06, 0x05, 0x04, 0x4B, 0x0C, 0x8C, 0x0B, 0xC0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		b, ref := NewBuilder(), newReferenceBuilder()
		type built struct {
			g   *Graph
			ref *referenceGraph
		}
		var snapshots []built
		pick := func(c byte) NodeID { return builderIDs[int(c)%len(builderIDs)] }
		for k := 0; k < len(ops); k++ {
			switch op := ops[k]; op >> 6 {
			case 0:
				b.AddNode(pick(op))
				ref.AddNode(pick(op))
			case 1, 2:
				u, v := pick(op), byteAt(ops, k+1)
				k++
				b.AddEdge(u, pick(v))
				ref.AddEdge(u, pick(v))
			case 3:
				snapshots = append(snapshots, built{b.Build(), ref.Build()})
			}
		}
		snapshots = append(snapshots, built{b.Build(), ref.Build()})
		for i, s := range snapshots {
			compareWithReference(t, fmt.Sprintf("build %d of %d", i+1, len(snapshots)), s.g, s.ref)
		}

		rng := rand.New(rand.NewSource(seed))
		gens := referenceGenerators()
		gn := gens[rng.Intn(len(gens))]
		a, c := rng.Intn(24), rng.Intn(24)
		got, want := gn.build(a, c, seed)
		compareWithReference(t, fmt.Sprintf("%s(%d, %d, seed %d)", gn.name, a, c, seed), got, want)
	})
}

// byteAt is ops[k], or 0 past the end.
func byteAt(ops []byte, k int) byte {
	if k < len(ops) {
		return ops[k]
	}
	return 0
}

// TestGeneratorsMatchReference sweeps every generator over a grid of its
// parameters and compares each graph with the reference generator's.
func TestGeneratorsMatchReference(t *testing.T) {
	for _, gn := range referenceGenerators() {
		for a := 0; a <= 12; a++ {
			for c := 0; c <= 6; c++ {
				got, want := gn.build(a, c, int64(a*7+c))
				compareWithReference(t, fmt.Sprintf("%s(%d, %d)", gn.name, a, c), got, want)
			}
		}
	}
	for _, n := range []int{999_998, 1_000_000, 1_234_567} {
		if got, want := RingID(n), refRingID(n); got != want {
			t.Fatalf("RingID(%d) = %q, want %q", n, got, want)
		}
	}
	for _, rc := range [][2]int{{0, 0}, {9999, 10000}, {123456, 7}, {-1, -12}, {-12345, 3}} {
		if got, want := GridID(rc[0], rc[1]), refGridID(rc[0], rc[1]); got != want {
			t.Fatalf("GridID(%d, %d) = %q, want %q", rc[0], rc[1], got, want)
		}
	}
}

// referenceGenerator pairs a generator with its reference; build maps two
// small integers and a seed onto the generator's parameters.
type referenceGenerator struct {
	name  string
	build func(a, c int, seed int64) (*Graph, *referenceGraph)
}

func referenceGenerators() []referenceGenerator {
	return []referenceGenerator{
		{"Grid", func(a, c int, _ int64) (*Graph, *referenceGraph) { return Grid(a, c), refGrid(a, c) }},
		{"Torus", func(a, c int, _ int64) (*Graph, *referenceGraph) { return Torus(a+1, c+1), refTorus(a+1, c+1) }},
		{"Ring", func(a, _ int, _ int64) (*Graph, *referenceGraph) { return Ring(a), refRing(a) }},
		{"Chord", func(a, _ int, _ int64) (*Graph, *referenceGraph) { return Chord(a), refChord(a) }},
		{"Line", func(a, _ int, _ int64) (*Graph, *referenceGraph) { return Line(a), refLine(a) }},
		{"Complete", func(a, _ int, _ int64) (*Graph, *referenceGraph) { return Complete(a), refComplete(a) }},
		{"Star", func(a, _ int, _ int64) (*Graph, *referenceGraph) { return Star(a), refStar(a) }},
		{"Tree", func(a, c int, _ int64) (*Graph, *referenceGraph) { return Tree(a, c), refTree(a, c) }},
		{"ErdosRenyi", func(a, c int, seed int64) (*Graph, *referenceGraph) {
			p := float64(c) / 8
			return ErdosRenyi(a, p, seed), refErdosRenyi(a, p, seed)
		}},
		{"SmallWorld", func(a, c int, seed int64) (*Graph, *referenceGraph) {
			n := a + 1
			return SmallWorld(n, c, 0.3, seed), refSmallWorld(n, c, 0.3, seed)
		}},
		{"RandomGeometric", func(a, c int, seed int64) (*Graph, *referenceGraph) {
			r := float64(c) / 10
			return RandomGeometric(a, r, seed), refRandomGeometric(a, r, seed)
		}},
		{"Clustered", func(a, c int, seed int64) (*Graph, *referenceGraph) {
			clusters, size := a%5+1, c+1
			return Clustered(clusters, size, 2, 0.5, seed), refClustered(clusters, size, 2, 0.5, seed)
		}},
		{"BarabasiAlbert", func(a, c int, seed int64) (*Graph, *referenceGraph) {
			m := c%3 + 1
			return BarabasiAlbert(a, m, seed), refBarabasiAlbert(a, m, seed)
		}},
		{"Hypercube", func(a, _ int, _ int64) (*Graph, *referenceGraph) {
			d := a % 7
			return Hypercube(d), refHypercube(d)
		}},
	}
}

// compareWithReference requires g and ref to be the same graph through
// every accessor the comparison can read from both.
func compareWithReference(t *testing.T, desc string, g *Graph, ref *referenceGraph) {
	t.Helper()
	if !slices.Equal(g.Nodes(), ref.Nodes()) {
		t.Fatalf("%s: Nodes = %q, reference %q", desc, g.Nodes(), ref.Nodes())
	}
	if g.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: NumEdges = %d, reference %d", desc, g.NumEdges(), ref.NumEdges())
	}
	probe := append(slices.Clone(g.Nodes()), "no-such-node")
	for _, u := range probe {
		if g.Index(u) != ref.Index(u) {
			t.Fatalf("%s: Index(%q) = %d, reference %d", desc, u, g.Index(u), ref.Index(u))
		}
		if !slices.Equal(g.Neighbors(u), ref.Neighbors(u)) {
			t.Fatalf("%s: Neighbors(%q) = %q, reference %q", desc, u, g.Neighbors(u), ref.Neighbors(u))
		}
		if i := g.Index(u); i >= 0 && !slices.Equal(g.NeighborIndices(i), ref.NeighborIndices(i)) {
			t.Fatalf("%s: NeighborIndices(%d) = %v, reference %v", desc, i, g.NeighborIndices(i), ref.NeighborIndices(i))
		}
	}
}
