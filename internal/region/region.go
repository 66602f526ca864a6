// Package region implements the region algebra of cliff-edge consensus:
// canonical connected node sets, their borders, and the strict total
// ranking relation ≺ of the paper's §3.1 that arbitrates between
// conflicting proposed views.
package region

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"cliffedge/internal/graph"
)

// Region is a canonical set of nodes together with its border in the
// underlying graph. The paper's views are regions: connected subgraphs whose
// nodes have all crashed. Regions are immutable once built.
//
// The zero Region is the empty region ∅ — never a valid view, but a useful
// sentinel: the protocol's maxView starts at ∅ and every non-empty region
// ranks strictly above it.
type Region struct {
	nodes  []graph.NodeID // sorted, deduplicated
	border []graph.NodeID // sorted; border(nodes) in the graph used to build
	key    string         // canonical identity: nodes joined by ','
	// hash is hashKey(key), computed once where the key is built, so tables
	// of views index by one integer instead of rehashing a key that grows
	// with the region (3.5 kB for a 24×24 block). It is a fixed function of
	// the key — never seeded per process — so a collision-dependent failure
	// replays, and it carries no identity: Equal and ≺ still read the key.
	hash uint64
	// Index backing (nil for Empty): the same sets as nodes/border, as
	// ascending dense indices of g. Because index order equals NodeID
	// order, idx/borderIdx are sorted exactly like nodes/border, and
	// membership tests compare int32s instead of strings.
	g         *graph.Graph
	idx       []int32
	borderIdx []int32
}

// Empty is the ∅ region.
var Empty = Region{}

// New builds a Region from the given nodes, computing its border in g.
// Input may be unsorted and contain duplicates; it is not aliased.
func New(g *graph.Graph, nodes []graph.NodeID) Region {
	if len(nodes) == 0 {
		return Empty
	}
	sorted := make([]graph.NodeID, len(nodes))
	copy(sorted, nodes)
	graph.SortIDs(sorted)
	dedup := sorted[:1]
	for _, n := range sorted[1:] {
		if n != dedup[len(dedup)-1] {
			dedup = append(dedup, n)
		}
	}
	border := g.BorderOfSlice(dedup)
	key := joinIDs(dedup)
	return Region{
		nodes:     dedup,
		border:    border,
		key:       key,
		hash:      hashKey(key),
		g:         g,
		idx:       indicesOf(g, dedup),
		borderIdx: indicesOf(g, border),
	}
}

// NewFromIndices builds a Region from ascending dense indices over g,
// with memberSet holding the same set as a bitset (the caller usually has
// one already; it is only read). This is the allocation-lean constructor
// used by the protocol hot path: no string sorting, border computed over
// the CSR adjacency.
func NewFromIndices(g *graph.Graph, members []int32, memberSet graph.Bitset) Region {
	return NewFromIndicesScratch(g, members, memberSet, graph.NewBitset(g.Len()), nil)
}

// NewFromIndicesScratch is NewFromIndices with a caller-owned scratch
// bitset for the border computation: seen must cover [0, g.Len()) and be
// empty on entry; it is empty again on return. Hot callers (one Region
// per crash detection) keep one scratch per automaton and save the bitset
// allocation, and the construction packs the four member/border slices
// into two allocations. A non-nil keys makes the region share its key
// string with every equal region built through the same table.
func NewFromIndicesScratch(g *graph.Graph, members []int32, memberSet, seen graph.Bitset, keys *KeyTable) Region {
	if len(members) == 0 {
		return Empty
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
	ids := make([]graph.NodeID, len(members)+borderCount)
	nodes := ids[:len(members):len(members)]
	keyLen := len(members) - 1
	for i, m := range members {
		nodes[i] = g.ID(m)
		keyLen += len(nodes[i])
	}
	border := ids[len(members):]
	for i, b := range borderIdx {
		border[i] = g.ID(b)
	}
	hash := hashIDs(nodes)
	key := keys.lookup(hash, nodes, keyLen)
	if key == "" {
		var sb strings.Builder
		sb.Grow(keyLen)
		for i, n := range nodes {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(string(n))
		}
		key = keys.store(hash, sb.String())
	}
	return Region{
		nodes:     nodes,
		border:    border,
		key:       key,
		hash:      hash,
		g:         g,
		idx:       idx,
		borderIdx: borderIdx,
	}
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

// lookup returns the stored key that joins nodes (keyLen bytes, hash its
// hashIDs), or "" if the table has none.
func (t *KeyTable) lookup(hash uint64, nodes []graph.NodeID, keyLen int) string {
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
	for i, n := range nodes {
		if i > 0 {
			if rest == "" || rest[0] != ',' {
				return ""
			}
			rest = rest[1:]
		}
		if !strings.HasPrefix(rest, string(n)) {
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

func indicesOf(g *graph.Graph, ids []graph.NodeID) []int32 {
	out := make([]int32, len(ids))
	for i, n := range ids {
		out[i] = g.Index(n)
	}
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashKey is 64-bit FNV-1a over the key bytes.
func hashKey(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	return h
}

// hashIDs is hashKey of the key that joins ids, without building the key.
func hashIDs(ids []graph.NodeID) uint64 {
	h := uint64(fnvOffset)
	for i, n := range ids {
		if i > 0 {
			h = (h ^ ',') * fnvPrime
		}
		for j := 0; j < len(n); j++ {
			h = (h ^ uint64(n[j])) * fnvPrime
		}
	}
	return h
}

func joinIDs(ids []graph.NodeID) string {
	parts := make([]string, len(ids))
	for i, n := range ids {
		parts[i] = string(n)
	}
	return strings.Join(parts, ",")
}

// Nodes returns the sorted member nodes. Callers must not mutate the slice.
func (r Region) Nodes() []graph.NodeID { return r.nodes }

// Border returns the sorted border nodes. Callers must not mutate the slice.
func (r Region) Border() []graph.NodeID { return r.border }

// BorderIndices returns the dense graph indices of Border(), in the same
// (ascending) order; nil for ∅. Callers must not mutate the slice.
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
func (r Region) Len() int { return len(r.nodes) }

// BorderLen returns |border(R)|.
func (r Region) BorderLen() int { return len(r.border) }

// IsEmpty reports whether R = ∅.
func (r Region) IsEmpty() bool { return len(r.nodes) == 0 }

// Contains reports whether n ∈ R. When the region carries its index
// backing the search compares int32 indices; string comparison is only
// the fallback for regions detached from their graph.
func (r Region) Contains(n graph.NodeID) bool {
	if r.g != nil {
		return r.ContainsIndex(r.g.Index(n))
	}
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i] >= n })
	return i < len(r.nodes) && r.nodes[i] == n
}

// ContainsIndex reports whether the node with dense index i is in R.
func (r Region) ContainsIndex(i int32) bool {
	_, ok := slices.BinarySearch(r.idx, i)
	return ok
}

// OnBorder reports whether n ∈ border(R), via the index backing when
// available.
func (r Region) OnBorder(n graph.NodeID) bool {
	if r.g != nil {
		return r.OnBorderIndex(r.g.Index(n))
	}
	i := sort.Search(len(r.border), func(i int) bool { return r.border[i] >= n })
	return i < len(r.border) && r.border[i] == n
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
// (CD6). Linear merge over the two sorted slices, comparing indices when
// both regions share a graph.
func (r Region) Intersects(s Region) bool {
	if r.g != nil && r.g == s.g {
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
	i, j := 0, 0
	for i < len(r.nodes) && j < len(s.nodes) {
		switch {
		case r.nodes[i] == s.nodes[j]:
			return true
		case r.nodes[i] < s.nodes[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// String renders the region as {a,b,c}.
func (r Region) String() string {
	if r.IsEmpty() {
		return "{}"
	}
	return "{" + r.key + "}"
}

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
func Less(r, s Region) bool {
	switch {
	case len(r.nodes) != len(s.nodes):
		return len(r.nodes) < len(s.nodes)
	case len(r.border) != len(s.border):
		return len(r.border) < len(s.border)
	default:
		// Rule 3 stays a key comparison: an index-sequence comparison would
		// be cheaper but orders differently when node IDs contain bytes
		// below ',' (e.g. "a!"), and nothing validates IDs against that.
		// Ties on both size and border size are rare, so this is cold.
		return r.key < s.key
	}
}

// MaxRanked returns the highest-ranked region of the given non-empty set
// (the paper's maxRankedRegion). Returns Empty for an empty input.
func MaxRanked(regions []Region) Region {
	best := Empty
	for _, r := range regions {
		if Less(best, r) {
			best = r
		}
	}
	return best
}

// FromKey rebuilds a Region over g from a canonical key produced by Key().
// The empty key yields Empty.
func FromKey(g *graph.Graph, key string) Region {
	if key == "" {
		return Empty
	}
	parts := strings.Split(key, ",")
	ids := make([]graph.NodeID, len(parts))
	for i, p := range parts {
		ids[i] = graph.NodeID(p)
	}
	return New(g, ids)
}

// FromComponents converts the output of graph.ConnectedComponents into
// regions over g.
func FromComponents(g *graph.Graph, comps [][]graph.NodeID) []Region {
	out := make([]Region, len(comps))
	for i, c := range comps {
		out[i] = New(g, c)
	}
	return out
}
