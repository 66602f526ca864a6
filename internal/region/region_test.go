package region

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"cliffedge/internal/graph"
)

func testGraph() *graph.Graph {
	return graph.Grid(5, 5)
}

func TestNewCanonicalises(t *testing.T) {
	g := testGraph()
	a := New(g, []graph.NodeID{graph.GridID(1, 1), graph.GridID(0, 1), graph.GridID(1, 1)})
	b := New(g, []graph.NodeID{graph.GridID(0, 1), graph.GridID(1, 1)})
	if !a.Equal(b) {
		t.Errorf("duplicate/unsorted input changed identity: %s vs %s", a, b)
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d, want 2 after dedup", a.Len())
	}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

// TestHashIsAFixedFunctionOfTheKey pins the hash to FNV-1a of the key: a
// per-process seed would make a collision-dependent failure unreplayable.
func TestHashIsAFixedFunctionOfTheKey(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").Build()
	if got := New(g, []graph.NodeID{"a"}).Hash(); got != 0xaf63dc4c8601ec8c {
		t.Errorf(`Hash of key "a" = %#x, want FNV-1a 0xaf63dc4c8601ec8c`, got)
	}
	if got := New(g, []graph.NodeID{"b", "a"}).Hash(); got != hashKey("a,b") {
		t.Errorf("Hash = %#x, want hashKey(Key()) = %#x", got, hashKey("a,b"))
	}
	if ab, err := FromKey(g, "a,b"); err != nil || ab.Hash() != New(g, []graph.NodeID{"a", "b"}).Hash() {
		t.Errorf("equal keys must hash alike (FromKey error %v)", err)
	}
	if Empty.Hash() != 0 {
		t.Errorf("Empty.Hash() = %#x, want 0", Empty.Hash())
	}
	r := New(g, []graph.NodeID{"c", "b"})
	if h, k := r.Identity(); h != r.Hash() || k != r.Key() {
		t.Errorf("Identity() = %#x, %q; want Hash() %#x, Key() %q", h, k, r.Hash(), r.Key())
	}
}

func TestEmptyRegion(t *testing.T) {
	g := testGraph()
	e := New(g, nil)
	if !e.IsEmpty() || !e.Equal(Empty) {
		t.Error("nil input should yield Empty")
	}
	if e.String() != "{}" {
		t.Errorf("Empty.String() = %q", e.String())
	}
	corner := New(g, []graph.NodeID{graph.GridID(0, 0)})
	if Less(&corner, &Empty) {
		t.Error("no region ranks below ∅")
	}
	if !Less(&Empty, &corner) {
		t.Error("∅ must rank below every non-empty region")
	}
}

func TestBorderComputation(t *testing.T) {
	g := testGraph()
	r := New(g, []graph.NodeID{graph.GridID(2, 2)})
	if r.BorderLen() != 4 {
		t.Fatalf("interior singleton border = %d, want 4", r.BorderLen())
	}
	if !r.OnBorder(graph.GridID(1, 2)) || r.OnBorder(graph.GridID(0, 0)) {
		t.Error("OnBorder misclassifies")
	}
	if r.Contains(graph.GridID(1, 2)) || !r.Contains(graph.GridID(2, 2)) {
		t.Error("Contains misclassifies")
	}
	// On the path r0-r1-r2-r3, border({r1, r2}) is exactly {r0, r3}, in
	// order.
	line := New(graph.Line(4), []graph.NodeID{graph.RingID(2), graph.RingID(1)})
	if got, want := line.Border(), []graph.NodeID{graph.RingID(0), graph.RingID(3)}; !slices.Equal(got, want) {
		t.Errorf("border of the path's middle = %v, want %v", got, want)
	}
}

func TestIntersectsAndSubset(t *testing.T) {
	g := testGraph()
	a := New(g, graph.GridBlock(0, 0, 2))
	b := New(g, graph.GridBlock(1, 1, 2))
	c := New(g, graph.GridBlock(3, 3, 2))
	if !a.Intersects(b) {
		t.Error("a and b overlap at (1,1)")
	}
	if a.Intersects(c) {
		t.Error("a and c are disjoint")
	}
}

func TestRankingSubsumesInclusion(t *testing.T) {
	g := testGraph()
	rng := rand.New(rand.NewSource(1))
	nodes := g.Nodes()
	for trial := 0; trial < 200; trial++ {
		var big []graph.NodeID
		for i := 0; i < 2+rng.Intn(6); i++ {
			big = append(big, nodes[rng.Intn(len(nodes))])
		}
		r := New(g, big)
		if r.Len() < 2 {
			continue
		}
		sub := New(g, r.Nodes()[:r.Len()-1])
		if !Less(&sub, &r) {
			t.Fatalf("strict subset %s should rank below %s", sub, r)
		}
	}
}

// TestRankingStrictTotalOrder verifies irreflexivity, antisymmetry,
// transitivity and totality of ≺ on random regions via testing/quick.
func TestRankingStrictTotalOrder(t *testing.T) {
	g := testGraph()
	nodes := g.Nodes()
	mk := func(picks []uint8) Region {
		ids := make([]graph.NodeID, 0, len(picks))
		for _, p := range picks {
			ids = append(ids, nodes[int(p)%len(nodes)])
		}
		return New(g, ids)
	}
	f := func(p1, p2, p3 []uint8) bool {
		a, b, c := mk(p1), mk(p2), mk(p3)
		// Irreflexive.
		if Less(&a, &a) {
			return false
		}
		// Antisymmetric + total: exactly one of a≺b, b≺a, a=b.
		n := 0
		if Less(&a, &b) {
			n++
		}
		if Less(&b, &a) {
			n++
		}
		if a.Equal(b) {
			n++
		}
		if n != 1 {
			return false
		}
		// Transitive.
		if Less(&a, &b) && Less(&b, &c) && !Less(&a, &c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRankingTieBreakers(t *testing.T) {
	// Ring: every singleton has border size 2, so equal size and border
	// fall through to the lexicographic rule.
	g := graph.Ring(6)
	a := New(g, []graph.NodeID{graph.RingID(0)})
	b := New(g, []graph.NodeID{graph.RingID(1)})
	if !Less(&a, &b) {
		t.Error("lexicographic tie-break failed")
	}
	// Grid: corner singleton (border 2) vs interior singleton (border 4):
	// same size, border decides.
	gg := testGraph()
	corner := New(gg, []graph.NodeID{graph.GridID(0, 0)})
	inner := New(gg, []graph.NodeID{graph.GridID(2, 2)})
	if !Less(&corner, &inner) {
		t.Error("border-size tie-break failed")
	}
	// Size dominates border size: a 2-node region beats any singleton.
	pair := New(gg, []graph.NodeID{graph.GridID(0, 0), graph.GridID(0, 1)})
	if !Less(&inner, &pair) {
		t.Error("size must dominate border size")
	}
}

// maxRanked is the paper's maxRankedRegion over Less: the highest-ranked
// of regions, ∅ for none.
func maxRanked(regions []Region) Region {
	best := Empty
	for _, r := range regions {
		if Less(&best, &r) {
			best = r
		}
	}
	return best
}

func TestLessMaxRanked(t *testing.T) {
	g := testGraph()
	a := New(g, []graph.NodeID{graph.GridID(0, 0)})
	b := New(g, graph.GridBlock(1, 1, 2))
	c := New(g, []graph.NodeID{graph.GridID(4, 4)})
	if got := maxRanked([]Region{a, b, c}); !got.Equal(b) {
		t.Errorf("maxRanked = %s, want %s", got, b)
	}
	if got := maxRanked(nil); !got.IsEmpty() {
		t.Errorf("maxRanked(nil) = %s, want ∅", got)
	}
}

func TestFromKeyRoundTrip(t *testing.T) {
	g := testGraph()
	r := New(g, graph.GridBlock(1, 2, 2))
	back, err := FromKey(g, r.Key())
	if err != nil || !back.Equal(r) || back.BorderLen() != r.BorderLen() {
		t.Errorf("round-trip changed region: %s vs %s (error %v)", back, r, err)
	}
	if e, err := FromKey(g, ""); err != nil || !e.IsEmpty() {
		t.Errorf("FromKey(\"\") = %s, %v; want Empty", e, err)
	}
}

func TestDomainsComponents(t *testing.T) {
	g := testGraph()
	s := graph.NewBitset(g.Len())
	s.Set(g.Index(graph.GridID(0, 0)))
	s.Set(g.Index(graph.GridID(4, 4)))
	regions := Domains(g, s)
	if len(regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(regions))
	}
}

// TestNodesOutsideTheGraph: a node outside the topology is rejected where
// a region is built — FromKey returns an error naming it, New panics
// naming it — and no region contains or borders it; distinct regions of
// single nodes do not intersect. ∅ and the zero Region answer false.
func TestNodesOutsideTheGraph(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").Build()
	for _, tc := range []struct{ key, foreign string }{
		{"a,zz", `"zz"`},
		{"ghost0", `"ghost0"`},
		{"ghost1", `"ghost1"`},
		{"ghost1,a", `"ghost1"`},
		{"a,,b", `""`},
		{",a", `""`},
		{"a,", `""`},
	} {
		r, err := FromKey(g, tc.key)
		if err == nil || !strings.Contains(err.Error(), tc.foreign) {
			t.Errorf("FromKey(%q) error = %v, want one naming %s", tc.key, err, tc.foreign)
		}
		if !r.IsEmpty() {
			t.Errorf("FromKey(%q) built %s", tc.key, r)
		}
	}
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), `"zz"`) {
				t.Errorf("New(g, {a, zz}) recovered %v, want a panic naming zz", p)
			}
		}()
		New(g, []graph.NodeID{"a", "zz"})
	}()

	a := New(g, []graph.NodeID{"a"})
	c := New(g, []graph.NodeID{"c"})
	for _, r := range []Region{Empty, {}, a, c} {
		for _, n := range []graph.NodeID{"zz", "ghost0", ""} {
			if r.Contains(n) || r.OnBorder(n) {
				t.Errorf("%s contains or borders %q, a node outside the graph", r, n)
			}
		}
	}
	if !a.Contains("a") || a.Contains("b") || !a.OnBorder("b") || a.OnBorder("a") {
		t.Errorf("{a} misclassifies its own nodes")
	}
	for _, r := range []Region{Empty, {}} {
		if r.Contains("a") || r.OnBorder("a") || r.OnBorderIndex(0) || r.Intersects(a) || a.Intersects(r) {
			t.Errorf("∅ answers true")
		}
	}
	if a.Intersects(c) || c.Intersects(a) {
		t.Error("{a} and {c} are disjoint")
	}
}

// TestRegionSize pins the size of a Region: messages, candidates and
// checker decisions carry one by value.
func TestRegionSize(t *testing.T) {
	if s := unsafe.Sizeof(Region{}); s > 80 {
		t.Fatalf("Region is %d bytes, want at most 80", s)
	}
}

func TestStringFormat(t *testing.T) {
	g := testGraph()
	r := New(g, []graph.NodeID{graph.GridID(0, 1), graph.GridID(0, 0)})
	want := "{n0000-0000,n0000-0001}"
	if r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
}

// hashKey is 64-bit FNV-1a over the key bytes: the reference hashIndices
// must equal without building the key.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}
