package region

import (
	"sync"
	"testing"
	"unsafe"

	"cliffedge/internal/graph"
)

// sameBytes reports whether two strings share their storage — what makes
// their comparison end at the pointer check.
func sameBytes(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

func blockIndices(g *graph.Graph, ids []graph.NodeID) ([]int32, graph.Bitset) {
	set := graph.NewBitset(g.Len())
	for _, id := range ids {
		set.Set(g.Index(id))
	}
	return set.AppendIndices(nil), set
}

// TestKeyTableSharesEqualKeys: regions built through one table from equal
// member sets hold one key string; the table changes nothing else about
// them, a region built without it (or through another) has a key of its
// own, and New and FromKey — the per-event constructors of the checker —
// never consult one.
func TestKeyTableSharesEqualKeys(t *testing.T) {
	g := graph.Grid(6, 6)
	members, set := blockIndices(g, graph.GridBlock(1, 1, 3))
	seen := graph.NewBitset(g.Len())
	keys := NewKeyTable()

	plain := NewFromIndicesScratch(g, members, set, nil, nil)
	a := NewFromIndicesScratch(g, members, set, seen, keys)
	b := NewFromIndicesScratch(g, members, set, seen, keys)
	if !sameBytes(a.Key(), b.Key()) {
		t.Error("two regions built through one table do not share their key")
	}
	if sameBytes(a.Key(), plain.Key()) {
		t.Error("a region built without a table shares the table's key")
	}
	if other := NewFromIndicesScratch(g, members, set, seen, NewKeyTable()); sameBytes(a.Key(), other.Key()) {
		t.Error("two tables share a key")
	}
	if a.Key() != plain.Key() || a.Hash() != plain.Hash() || a.Hash() != hashKey(a.Key()) {
		t.Errorf("the table changed the region: key %q hash %#x, without it %q %#x", a.Key(), a.Hash(), plain.Key(), plain.Hash())
	}
	if !a.Equal(plain) || Less(&a, &plain) || Less(&plain, &a) {
		t.Error("a shared key is not equal to its private copy")
	}
	if viaNew := New(g, graph.GridBlock(1, 1, 3)); sameBytes(viaNew.Key(), a.Key()) || viaNew.Key() != a.Key() {
		t.Error("New must build its own, equal key")
	}

	smaller, smallerSet := blockIndices(g, graph.GridBlock(1, 1, 2))
	if c := NewFromIndicesScratch(g, smaller, smallerSet, seen, keys); c.Key() == a.Key() ||
		c.Key() != NewFromIndicesScratch(g, smaller, smallerSet, nil, nil).Key() {
		t.Errorf("a different member set got key %q", c.Key())
	}
	if len(keys.keys) != 2 {
		t.Errorf("table holds %d keys, want 2", len(keys.keys))
	}
}

// TestKeyTableIdentityIsTheKeyBytes: what the table stores under a hash is
// handed out only if it is byte for byte the key being built. Hashes are
// forced equal here by planting entries; a colliding key is not shared and
// not replaced.
func TestKeyTableIdentityIsTheKeyBytes(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").Build()
	nodes := []int32{g.Index("a"), g.Index("b")}
	h, keyLen := hashIndices(g, nodes)
	if h != hashKey("a,b") || keyLen != len("a,b") {
		t.Fatalf("hashIndices = %#x, %d; want hashKey of the joined key %#x, %d", h, keyLen, hashKey("a,b"), len("a,b"))
	}
	for _, planted := range []string{"aXb", "a,c", "a,bb", "ab,", ",ab", "a,b,"} {
		keys := NewKeyTable()
		keys.keys[h] = planted
		if got := keys.lookup(h, g, nodes, len("a,b")); got != "" {
			t.Errorf("lookup handed out %q for the key a,b", got)
		}
		keys.store(h, "a,b")
		if keys.keys[h] != planted {
			t.Errorf("store replaced the colliding key %q", planted)
		}
	}
	keys := NewKeyTable()
	keys.store(h, "a,b")
	if got := keys.lookup(h, g, nodes, 3); got != "a,b" {
		t.Errorf("lookup = %q, want the stored key", got)
	}
	var none *KeyTable
	none.store(h, "a,b")
	if got := none.lookup(h, g, nodes, 3); got != "" {
		t.Errorf("a nil table handed out %q", got)
	}
}

// TestKeyTableCollisionKeepsOwnKey forces a hash collision: the table
// holds another region's key under the hash of the region being built. The
// built region keeps its own key, so Equal and Less — which read the key,
// not the hash — still tell the two apart. On a ring all singletons have
// the same size and border size, so Less falls through to the key.
func TestKeyTableCollisionKeepsOwnKey(t *testing.T) {
	g := graph.Ring(6)
	seen := graph.NewBitset(g.Len())
	members, set := blockIndices(g, []graph.NodeID{graph.RingID(0)})
	otherMembers, otherSet := blockIndices(g, []graph.NodeID{graph.RingID(1)})
	own := NewFromIndicesScratch(g, members, set, nil, nil)
	other := NewFromIndicesScratch(g, otherMembers, otherSet, nil, nil)

	keys := NewKeyTable()
	keys.keys[own.Hash()] = other.Key()
	r := NewFromIndicesScratch(g, members, set, seen, keys)
	if r.Key() != own.Key() || r.Hash() != own.Hash() {
		t.Fatalf("built under a colliding hash: key %q hash %#x, want %q %#x", r.Key(), r.Hash(), own.Key(), own.Hash())
	}
	if keys.keys[own.Hash()] != other.Key() {
		t.Errorf("the colliding key was replaced by %q", keys.keys[own.Hash()])
	}
	if r.Equal(other) || !r.Equal(own) {
		t.Errorf("Equal does not read the region's own key: %s vs %s", r, other)
	}
	if !Less(&r, &other) || Less(&other, &r) || Less(&r, &own) || Less(&own, &r) {
		t.Errorf("Less does not read the region's own key: %s vs %s", r, other)
	}
}

// TestKeyTableConcurrentBuilders is the sharded-lane and live-runtime
// posture: goroutines building the same and different regions through one
// table at once all end up with the table's one string per key. Run under
// -race.
func TestKeyTableConcurrentBuilders(t *testing.T) {
	g := graph.Grid(8, 8)
	keys := NewKeyTable()
	const builders = 8
	got := make([][]Region, builders)
	var wg sync.WaitGroup
	for w := 0; w < builders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := graph.NewBitset(g.Len())
			for side := 1; side <= 5; side++ {
				members, set := blockIndices(g, graph.GridBlock(1, 1, side))
				got[w] = append(got[w], NewFromIndicesScratch(g, members, set, seen, keys))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < builders; w++ {
		for i, r := range got[w] {
			if !sameBytes(r.Key(), got[0][i].Key()) {
				t.Fatalf("builder %d holds its own copy of key %q", w, r.Key())
			}
		}
	}
}
