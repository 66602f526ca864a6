package region

import (
	"slices"
	"testing"

	"cliffedge/internal/graph"
)

// fuzzTopologies are the graphs FuzzRegionOps draws from: small enough to
// brute-force every invariant, varied enough to cover degrees from 1
// (line ends) to hubs (star centre) and irregular random rows.
var fuzzTopologies = []*graph.Graph{
	graph.Grid(4, 4),
	graph.Ring(12),
	graph.Line(9),
	graph.Chord(10),
	graph.Star(9),
	graph.ErdosRenyi(25, 0.15, 5),
}

// decodeSet maps a byte slice to a node subset of g.
func decodeSet(g *graph.Graph, data []byte) ([]int32, graph.Bitset) {
	set := graph.NewBitset(g.Len())
	for _, b := range data {
		set.Set(int32(int(b) % g.Len()))
	}
	return set.AppendIndices(nil), set
}

// buildBothWays constructs the same region through the string constructor
// and the index constructor and checks they are identical.
func buildBothWays(t *testing.T, g *graph.Graph, members []int32, set graph.Bitset) Region {
	t.Helper()
	ids := make([]graph.NodeID, len(members))
	for i, m := range members {
		ids[i] = g.ID(m)
	}
	rStr := New(g, ids)
	rIdx := NewFromIndicesScratch(g, members, set, nil, nil)
	if rStr.Key() != rIdx.Key() {
		t.Fatalf("constructors disagree on key: %q (string) vs %q (index)", rStr.Key(), rIdx.Key())
	}
	if rStr.Hash() != rIdx.Hash() {
		t.Fatalf("constructors disagree on the hash of key %q: %#x vs %#x", rStr.Key(), rStr.Hash(), rIdx.Hash())
	}
	bs, bi := rStr.Border(), rIdx.Border()
	if len(bs) != len(bi) {
		t.Fatalf("constructors disagree on border size: %v vs %v", bs, bi)
	}
	for k := range bs {
		if bs[k] != bi[k] {
			t.Fatalf("constructors disagree on border[%d]: %s vs %s", k, bs[k], bi[k])
		}
	}
	return rIdx
}

// FuzzRegionOps cross-checks the index-backed region operations —
// Contains, OnBorderIndex, Intersects, Less — against brute-force
// string-set references on two fuzzed subsets of a fuzzed topology.
//
// Run the smoke pass in CI with:
//
//	go test -run '^$' -fuzz '^FuzzRegionOps$' -fuzztime 10s ./internal/region
func FuzzRegionOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 0, 0, 0, 11, 11})
	f.Add([]byte{4, 8, 8, 8, 1, 2, 3, 200, 100, 50})
	f.Add([]byte{2, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{5, 0, 3, 7, 12, 19, 24, 2, 3, 11, 17, 18, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := fuzzTopologies[int(data[0])%len(fuzzTopologies)]
		rest := data[1:]
		half := len(rest) / 2
		membersA, setA := decodeSet(g, rest[:half])
		membersB, setB := decodeSet(g, rest[half:])
		rA := buildBothWays(t, g, membersA, setA)
		rB := buildBothWays(t, g, membersB, setB)

		for _, r := range []struct {
			reg Region
			set graph.Bitset
		}{{rA, setA}, {rB, setB}} {
			if r.reg.Len() != r.set.Count() {
				t.Fatalf("Len() = %d, set has %d members", r.reg.Len(), r.set.Count())
			}
			for i := int32(0); i < int32(g.Len()); i++ {
				n := g.ID(i)
				if r.reg.Contains(n) != r.set.Has(i) {
					t.Fatalf("Contains(%s) disagrees with the reference set", n)
				}
				// Brute-force border membership: outside the set, adjacent
				// to a member (string adjacency as the reference).
				wantBorder := false
				if !r.set.Has(i) {
					for _, m := range g.Neighbors(n) {
						if r.set.Has(g.Index(m)) {
							wantBorder = true
							break
						}
					}
				}
				if r.reg.OnBorderIndex(i) != wantBorder {
					t.Fatalf("OnBorderIndex(%d) = %v, brute force says %v", i, r.reg.OnBorderIndex(i), wantBorder)
				}
				if r.reg.OnBorder(n) != wantBorder {
					t.Fatalf("OnBorder(%s) disagrees with brute force", n)
				}
			}
		}

		// Intersects: symmetric, equal to brute-force bitset overlap.
		wantIntersect := false
		setA.ForEach(func(i int32) {
			if setB.Has(i) {
				wantIntersect = true
			}
		})
		if rA.Intersects(rB) != wantIntersect || rB.Intersects(rA) != wantIntersect {
			t.Fatalf("Intersects = (%v, %v), brute force says %v",
				rA.Intersects(rB), rB.Intersects(rA), wantIntersect)
		}

		// Less: a strict total order consistent with Key equality, with
		// Empty below every non-empty region.
		regions := []Region{rA, rB, Empty}
		if len(membersA) > 0 {
			regions = append(regions, buildBothWays(t, g,
				membersA[:1], singleton(g, membersA[0])))
		}
		for _, x := range regions {
			if Less(&x, &x) {
				t.Fatalf("Less(%s, %s) = true: not irreflexive", x, x)
			}
			if !x.IsEmpty() && !Less(&Empty, &x) {
				t.Fatalf("Empty must rank below %s", x)
			}
			for _, y := range regions {
				equal := x.Key() == y.Key()
				if equal == (Less(&x, &y) || Less(&y, &x)) {
					t.Fatalf("trichotomy broken for %s vs %s: equal=%v Less=(%v,%v)",
						x, y, equal, Less(&x, &y), Less(&y, &x))
				}
				for _, z := range regions {
					if Less(&x, &y) && Less(&y, &z) && !Less(&x, &z) {
						t.Fatalf("transitivity broken: %s ≺ %s ≺ %s but not %s ≺ %s", x, y, z, x, z)
					}
				}
			}
		}
	})
}

func singleton(g *graph.Graph, i int32) graph.Bitset {
	s := graph.NewBitset(g.Len())
	s.Set(i)
	return s
}

// FuzzFromKey feeds arbitrary bytes to FromKey as a key over a 4×4 grid.
// The result is an error and ∅, or a region whose member and border
// indices are ascending and in [0, g.Len()), and whose Key() rebuilds the
// same region.
//
//	go test -run '^$' -fuzz '^FuzzFromKey$' -fuzztime 10s ./internal/region
func FuzzFromKey(f *testing.F) {
	g := graph.Grid(4, 4)
	f.Add([]byte(""))
	f.Add([]byte(g.ID(5) + "," + g.ID(0) + "," + g.ID(5)))
	f.Add([]byte(g.ID(0) + ",zz"))
	f.Add([]byte(g.ID(0) + ",," + g.ID(1)))
	f.Add([]byte(","))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := FromKey(g, string(data))
		if err != nil {
			if !r.IsEmpty() {
				t.Fatalf("FromKey(%q) failed with %v but built %s", data, err, r)
			}
			return
		}
		for _, idx := range [][]int32{r.Indices(), r.BorderIndices()} {
			for k, i := range idx {
				if i < 0 || int(i) >= g.Len() || k > 0 && idx[k-1] >= i {
					t.Fatalf("FromKey(%q) holds indices %v: not ascending in [0, %d)", data, idx, g.Len())
				}
			}
		}
		back, err := FromKey(g, r.Key())
		if err != nil || back.Key() != r.Key() || back.Hash() != r.Hash() ||
			!slices.Equal(back.Indices(), r.Indices()) || !slices.Equal(back.BorderIndices(), r.BorderIndices()) {
			t.Fatalf("Key %q of FromKey(%q) does not round-trip: %s, %v", r.Key(), data, back, err)
		}
	})
}
