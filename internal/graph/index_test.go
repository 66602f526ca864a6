package graph

import (
	"math/rand"
	"testing"
)

// TestIndexRoundTrip checks the dense-index contract on a spread of
// generated topologies: Index and ID are inverse bijections onto
// [0, Len), index order equals sorted NodeID order, and the CSR adjacency
// agrees with the string-keyed adjacency lists.
func TestIndexRoundTrip(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":      NewBuilder().Build(),
		"single":     NewBuilder().AddNode("only").Build(),
		"grid":       Grid(7, 9),
		"torus":      Torus(5, 5),
		"ring":       Ring(40),
		"chord":      Chord(32),
		"line":       Line(17),
		"complete":   Complete(12),
		"star":       Star(20),
		"tree":       Tree(30, 3),
		"hypercube":  Hypercube(5),
		"erdosrenyi": ErdosRenyi(48, 0.1, 3),
		"smallworld": SmallWorld(48, 4, 0.2, 4),
		"geometric":  RandomGeometric(48, 0.25, 5),
		"clustered":  Clustered(4, 12, 2, 0.3, 6),
		"scalefree":  BarabasiAlbert(48, 2, 7),
	}
	for name, g := range graphs {
		nodes := g.Nodes()
		for i, n := range nodes {
			if got := g.Index(n); got != int32(i) {
				t.Fatalf("%s: Index(%s) = %d, want %d (sorted position)", name, n, got, i)
			}
			if got := g.ID(int32(i)); got != n {
				t.Fatalf("%s: ID(%d) = %s, want %s", name, i, got, n)
			}
			if i > 0 && !(nodes[i-1] < n) {
				t.Fatalf("%s: Nodes() not strictly sorted at %d", name, i)
			}
			nbrs := g.Neighbors(n)
			idxs := g.NeighborIndices(int32(i))
			if len(nbrs) != len(idxs) || len(nbrs) != g.DegreeOf(int32(i)) {
				t.Fatalf("%s: neighbour count mismatch for %s: %d ids, %d indices",
					name, n, len(nbrs), len(idxs))
			}
			for j, q := range nbrs {
				if g.ID(idxs[j]) != q {
					t.Fatalf("%s: CSR neighbour %d of %s = %s, want %s",
						name, j, n, g.ID(idxs[j]), q)
				}
				if j > 0 && idxs[j-1] >= idxs[j] {
					t.Fatalf("%s: CSR neighbours of %s not ascending", name, n)
				}
			}
		}
		if g.Index("no-such-node-id") != -1 {
			t.Fatalf("%s: Index of unknown node should be -1", name)
		}
		// Neighbors hands out a fresh slice: writing to it leaves the graph
		// as it was.
		for i, n := range nodes {
			if nbrs := g.Neighbors(n); len(nbrs) > 0 {
				nbrs[0] = "overwritten"
				if got := g.Neighbors(n)[0]; got != g.ID(g.NeighborIndices(int32(i))[0]) {
					t.Fatalf("%s: writing to Neighbors(%s) changed the graph: row starts %s", name, n, got)
				}
			}
		}
	}
}

// TestIndexRoundTripRandom drives the same contract over randomly built
// graphs (random node names, random edges), so the property does not
// depend on generator naming conventions.
func TestIndexRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	letters := []rune("abcdefghijklmnopqrstuvwxyz0123456789-")
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder()
		n := 1 + rng.Intn(40)
		ids := make([]NodeID, 0, n)
		for i := 0; i < n; i++ {
			name := make([]rune, 1+rng.Intn(8))
			for j := range name {
				name[j] = letters[rng.Intn(len(letters))]
			}
			ids = append(ids, NodeID(name))
			b.AddNode(NodeID(name))
		}
		for e := 0; e < n*2; e++ {
			b.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
		}
		g := b.Build()
		for _, n := range g.Nodes() {
			if g.ID(g.Index(n)) != n {
				t.Fatalf("trial %d: round trip failed for %q", trial, n)
			}
		}
		for i := 0; i < g.Len(); i++ {
			if g.Index(g.ID(int32(i))) != int32(i) {
				t.Fatalf("trial %d: round trip failed for index %d", trial, i)
			}
		}
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int32{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Has(i) {
			t.Fatalf("fresh bitset has %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	var got []int32
	b.ForEach(func(i int32) { got = append(got, i) })
	want := []int32{0, 1, 63, 64, 65, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want ascending %v", got, want)
		}
	}
	if idxs := b.AppendIndices(nil); len(idxs) != 8 || idxs[7] != 129 {
		t.Fatalf("AppendIndices = %v", idxs)
	}
	b.Unset(64)
	if b.Has(64) || b.Count() != 7 {
		t.Fatal("Unset(64) failed")
	}
	clone := b.Clone()
	clone.Set(64)
	if b.Has(64) {
		t.Fatal("Clone must not alias")
	}
}

// TestBitsetReset: Reset empties the set over the new range, reusing the
// words when there are enough and allocating when there are not.
func TestBitsetReset(t *testing.T) {
	b := NewBitset(200)
	b.Set(3)
	b.Set(199)
	small := b.Reset(70)
	if len(small) != 2 || small.Count() != 0 || &small[0] != &b[0] {
		t.Fatalf("Reset(70) = %d words, %d members, reused %v", len(small), small.Count(), &small[0] == &b[0])
	}
	small.Set(69)
	big := small.Reset(200)
	if len(big) != 4 || big.Count() != 0 {
		t.Fatalf("Reset(200) after Reset(70) = %d words, %d members", len(big), big.Count())
	}
	if grown := big.Reset(300); len(grown) != 5 || grown.Count() != 0 {
		t.Fatalf("Reset(300) = %d words, %d members", len(grown), grown.Count())
	}
}
