// Package region implements the region algebra of cliff-edge consensus:
// canonical connected node sets, their borders, and the strict total
// ranking relation ≺ of the paper's §3.1 that arbitrates between
// conflicting proposed views.
package region

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"cliffedge/internal/graph"
)

// Region is a canonical set of nodes together with its border in the
// underlying graph. The paper's views are regions: connected subgraphs whose
// nodes have all crashed. Regions are immutable once built.
//
// A region is its graph, its members and border as ascending indices of
// that graph (index order is NodeID order), its key and the key's hash:
// no set is held twice, and no constructor accepts a node outside g. Names
// are rendered from g only at the edge (Nodes, Border, BorderID, String).
//
// The zero Region is the empty region ∅ — never a valid view, but a useful
// sentinel: the protocol's maxView starts at ∅ and every non-empty region
// ranks strictly above it.
type Region struct {
	g         *graph.Graph
	idx       []int32 // members, ascending
	borderIdx []int32 // border(members) in g, ascending
	key       string  // canonical identity: the member IDs joined by ','
	// hash is the 64-bit FNV-1a of key, computed once where the key is
	// built, so tables of views index by one integer instead of rehashing a
	// key that grows with the region (3.5 kB for a 24×24 block). It is a
	// fixed function of the key — never seeded per process — so a
	// collision-dependent failure replays, and it carries no identity:
	// Equal and ≺ still read the key.
	hash uint64
}

// Empty is the ∅ region.
var Empty = Region{}

// New builds a Region from the given nodes, computing its border in g.
// Input may be unsorted and contain duplicates; it is not aliased. Every
// node must be in g: like g.ID given an index outside g, New panics,
// naming the node. Names that come from outside the program go through
// FromKey, which returns the error instead.
func New(g *graph.Graph, nodes []graph.NodeID) Region {
	set := graph.NewBitset(g.Len())
	for _, n := range nodes {
		i := g.Index(n)
		if i < 0 {
			panic(notInGraph(n))
		}
		set.Set(i)
	}
	return NewFromIndicesScratch(g, set.AppendIndices(nil), set, nil, nil)
}

// FromKey rebuilds a Region over g from a canonical key produced by Key().
// The empty key yields Empty. A key that names a node outside g — an
// empty part included — is an error naming that node.
func FromKey(g *graph.Graph, key string) (Region, error) {
	if key == "" {
		return Empty, nil
	}
	set := graph.NewBitset(g.Len())
	for part := range strings.SplitSeq(key, ",") {
		i := g.Index(graph.NodeID(part))
		if i < 0 {
			return Empty, notInGraph(graph.NodeID(part))
		}
		set.Set(i)
	}
	return NewFromIndicesScratch(g, set.AppendIndices(nil), set, nil, nil), nil
}

func notInGraph(n graph.NodeID) error {
	return fmt.Errorf("region: node %q is not in the topology", n)
}

// NewFromIndicesScratch builds a Region from ascending dense indices over
// g, with memberSet holding the same set as a bitset (only read). Every
// other constructor ends here. seen is scratch for the border: nil, or a
// bitset covering [0, g.Len()) that is empty on entry and again on return,
// which hot callers (one Region per crash detection) keep per automaton. A
// non-nil keys makes the region share its key string with every equal
// region built through the same table.
func NewFromIndicesScratch(g *graph.Graph, members []int32, memberSet, seen graph.Bitset, keys *KeyTable) Region {
	if len(members) == 0 {
		return Empty
	}
	if seen == nil {
		seen = graph.NewBitset(g.Len())
	}
	borderCount := 0
	for _, m := range members {
		for _, q := range g.NeighborIndices(m) {
			if !memberSet.Has(q) && !seen.Has(q) {
				seen.Set(q)
				borderCount++
			}
		}
	}
	ints := make([]int32, len(members), len(members)+borderCount)
	copy(ints, members)
	borderIdx := seen.AppendIndices(ints[len(members):len(members)])
	idx := ints[:len(members):len(members)]
	for _, b := range borderIdx {
		seen.Unset(b)
	}
	hash, keyLen := hashIndices(g, idx)
	key := keys.lookup(hash, g, idx, keyLen)
	if key == "" {
		var sb strings.Builder
		sb.Grow(keyLen)
		for k, i := range idx {
			if k > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(string(g.ID(i)))
		}
		key = keys.store(hash, sb.String())
	}
	return Region{g: g, idx: idx, borderIdx: borderIdx, key: key, hash: hash}
}

// KeyTable gives equal regions one key string. Every border node of a
// crashed region builds that region for itself, so without a table a node
// holds as many copies of a key as it has peers proposing the view, and
// each comparison of two of them — one per delivery, in the protocol's
// view lookup — reads both to the end (3.5 kB for a 24×24 block). Strings
// that share their bytes compare equal at the pointer check.
//
// The table only saves work: a key is identified by its bytes whether or
// not it came from a table, and two keys that collide on the hash are
// simply not shared. It is safe for concurrent use (sharded simulator
// lanes and live-runtime goroutines build regions at once) and belongs to
// whoever owns the regions' lifetime — one table per run, dropped with it.
// A nil *KeyTable shares nothing.
type KeyTable struct {
	mu   sync.Mutex
	keys map[uint64]string
}

// NewKeyTable returns an empty table.
func NewKeyTable() *KeyTable { return &KeyTable{keys: make(map[uint64]string)} }

// Reset empties the table for the next run, keeping its map's memory.
func (t *KeyTable) Reset() {
	t.mu.Lock()
	clear(t.keys)
	t.mu.Unlock()
}

// lookup returns the stored key that joins the IDs of idx in g (keyLen
// bytes, hash its hashIndices), or "" if the table has none.
func (t *KeyTable) lookup(hash uint64, g *graph.Graph, idx []int32, keyLen int) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	key := t.keys[hash]
	t.mu.Unlock()
	if len(key) != keyLen {
		return ""
	}
	rest := key
	for k, i := range idx {
		if k > 0 {
			if rest == "" || rest[0] != ',' {
				return ""
			}
			rest = rest[1:]
		}
		n := string(g.ID(i))
		if !strings.HasPrefix(rest, n) {
			return ""
		}
		rest = rest[len(n):]
	}
	return key
}

// store records key under hash unless the hash is taken, and returns the
// key to use: the table's, if an equal key another goroutine built at the
// same time got there first, else key itself (also when a colliding key
// holds the hash).
func (t *KeyTable) store(hash uint64, key string) string {
	if t == nil {
		return key
	}
	t.mu.Lock()
	held, taken := t.keys[hash]
	if !taken {
		t.keys[hash] = key
	}
	t.mu.Unlock()
	if taken && held == key {
		return held
	}
	return key
}

// hashIndices returns the 64-bit FNV-1a hash of the key that joins the IDs
// of idx in g, and that key's length, without building the key.
func hashIndices(g *graph.Graph, idx []int32) (hash uint64, keyLen int) {
	const prime = 1099511628211
	hash = 14695981039346656037
	for k, i := range idx {
		if k > 0 {
			hash = (hash ^ ',') * prime
		}
		n := g.ID(i)
		for j := 0; j < len(n); j++ {
			hash = (hash ^ uint64(n[j])) * prime
		}
		keyLen += len(n)
	}
	return hash, keyLen + len(idx) - 1
}

// Nodes renders the sorted member IDs from the region's graph. It
// allocates a new slice on every call, so it is for the edge — messages,
// reports, user callbacks — not for loops over regions, which read
// Indices.
func (r Region) Nodes() []graph.NodeID { return r.render(r.idx) }

// Border renders the sorted border IDs from the region's graph. Like
// Nodes, it allocates on every call; loops read BorderIndices.
func (r Region) Border() []graph.NodeID { return r.render(r.borderIdx) }

func (r Region) render(idx []int32) []graph.NodeID {
	out := make([]graph.NodeID, len(idx))
	for k, i := range idx {
		out[k] = r.g.ID(i)
	}
	return out
}

// BorderID returns Border()[k] without rendering the rest of the border.
func (r *Region) BorderID(k int) graph.NodeID { return r.g.ID(r.borderIdx[k]) }

// Indices returns the dense graph indices of the members, ascending; nil
// for ∅. Callers must not mutate the slice.
func (r Region) Indices() []int32 { return r.idx }

// BorderIndices returns the dense graph indices of the border, ascending;
// nil for ∅. Callers must not mutate the slice.
func (r Region) BorderIndices() []int32 { return r.borderIdx }

// Key returns the canonical identity of the region, suitable as a map key.
// Two regions built from the same node set over any graph share a key (the
// key identifies the *set*, not the border, matching the paper where a view
// is identified by the region it covers).
func (r Region) Key() string { return r.key }

// Hash returns a fixed 64-bit hash of Key() (0 for ∅). Regions with equal
// keys have equal hashes; distinct keys may collide, so a table indexed by
// Hash must still compare keys within a bucket.
func (r Region) Hash() uint64 { return r.hash }

// Identity returns Hash() and Key() together. It takes a pointer so that a
// caller holding one — the view of a message shared by reference — reads
// the region's identity without copying the whole struct, which a call to
// either value method through a pointer does.
func (r *Region) Identity() (hash uint64, key string) { return r.hash, r.key }

// Len returns |R|.
func (r Region) Len() int { return len(r.idx) }

// BorderLen returns |border(R)|.
func (r Region) BorderLen() int { return len(r.borderIdx) }

// IsEmpty reports whether R = ∅.
func (r Region) IsEmpty() bool { return len(r.idx) == 0 }

// Contains reports whether n ∈ R; false for a node outside the graph.
func (r Region) Contains(n graph.NodeID) bool { return r.search(r.idx, n) }

// OnBorder reports whether n ∈ border(R); false for a node outside the
// graph.
func (r Region) OnBorder(n graph.NodeID) bool { return r.search(r.borderIdx, n) }

// search reports whether n is the ID of one of idx (ascending, so their
// IDs are too).
func (r Region) search(idx []int32, n graph.NodeID) bool {
	_, ok := slices.BinarySearchFunc(idx, n, func(i int32, n graph.NodeID) int {
		return strings.Compare(string(r.g.ID(i)), string(n))
	})
	return ok
}

// OnBorderIndex reports whether the node with dense index i is in
// border(R).
func (r Region) OnBorderIndex(i int32) bool {
	_, ok := slices.BinarySearch(r.borderIdx, i)
	return ok
}

// Equal reports whether two regions cover the same node set.
func (r Region) Equal(s Region) bool { return r.key == s.key }

// Intersects reports whether R ∩ S ≠ ∅ — the premise of View Convergence
// (CD6) — for two regions over the same graph: a linear merge of their
// member indices.
func (r Region) Intersects(s Region) bool {
	i, j := 0, 0
	for i < len(r.idx) && j < len(s.idx) {
		switch {
		case r.idx[i] == s.idx[j]:
			return true
		case r.idx[i] < s.idx[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// String renders the region as {a,b,c}.
func (r Region) String() string { return "{" + r.key + "}" }

// Less implements the strict total ranking ≺ of §3.1: R ≺ S iff
//
//  1. |R| < |S|, or
//  2. |R| = |S| and |border(R)| < |border(S)|, or
//  3. sizes and border sizes are equal and R's node set is lexicographically
//     smaller than S's.
//
// Rule 3 instantiates the paper's "some strict total order ⊏ on sets of
// nodes" with lexicographic order on the sorted node-ID sequence; the paper
// notes the particular choice does not matter. Because rule 1 compares
// cardinality first, ≺ subsumes strict set inclusion (R ⊊ S ⇒ R ≺ S), a
// fact the Progress proof (Thm 4) relies on.
func Less(r, s *Region) bool {
	switch {
	case len(r.idx) != len(s.idx):
		return len(r.idx) < len(s.idx)
	case len(r.borderIdx) != len(s.borderIdx):
		return len(r.borderIdx) < len(s.borderIdx)
	default:
		// Rule 3 stays a key comparison: an index-sequence comparison would
		// be cheaper but orders differently when node IDs contain bytes
		// below ',' (e.g. "a!"), and nothing validates IDs against that.
		// Ties on both size and border size are rare, so this is cold.
		return r.key < s.key
	}
}
