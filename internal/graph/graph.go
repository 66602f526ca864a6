// Package graph implements the undirected knowledge graph G = (Π, E) that
// underpins cliff-edge consensus (paper §2.2): nodes only know their
// immediate neighbours, and a region's border is the set of outside nodes
// adjacent to it (package region computes it from the adjacency here).
//
// Graphs are immutable once built (the paper's G is fixed for a run; crashes
// remove processes, not edges), which lets every layer above share a single
// Graph value without locking.
package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a process in Π. IDs are ordered lexicographically; the
// ranking relation of §3.1 only needs *some* strict total order on node
// sets, and string order is convenient for human-readable examples
// (paris, london, …) as well as generated topologies (n0042…).
type NodeID string

// Graph is an immutable undirected graph. The zero value is an empty graph.
//
// Alongside the string-keyed API, every graph carries a dense integer
// index: node i (0 ≤ i < Len) is the i-th node in sorted NodeID order, so
// index order and lexicographic NodeID order coincide. Performance-critical
// layers (sim, core, region) address nodes by index — bitsets, flat slices
// and CSR adjacency — and convert to NodeIDs only at observable boundaries
// (trace events, results). The mapping is stable for the lifetime of the
// graph because graphs are immutable.
type Graph struct {
	nodes []NodeID         // sorted; nodes[i] is the NodeID of index i
	index map[NodeID]int32 // inverse of nodes
	// CSR adjacency over indices: the neighbours of index i are
	// csrAdj[csrStart[i]:csrStart[i+1]], in ascending index order (which is
	// ascending NodeID order).
	csrStart []int32
	csrAdj   []int32
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// Nodes get slots in insertion order; edges are kept as slot pairs until
// Build sorts them into the graph's CSR arrays.
type Builder struct {
	index map[NodeID]int32 // ID → slot
	ids   []NodeID         // slot → ID
	edges []uint64         // u<<32 | v by slot, one entry per AddEdge call
	// shared is set by Build, which hands index and ids to the Graph: the
	// next AddNode copies them before writing.
	shared bool
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return newBuilder(0, 0) }

// newBuilder is NewBuilder sized for the given numbers of nodes and
// AddEdge calls, which the generators know up front.
func newBuilder(nodes, edges int) *Builder {
	nodes, edges = max(nodes, 0), max(edges, 0)
	return &Builder{
		index: make(map[NodeID]int32, nodes),
		ids:   make([]NodeID, 0, nodes),
		edges: make([]uint64, 0, edges),
	}
}

// AddNode ensures n is present (isolated nodes are allowed: a node with no
// neighbours simply never participates in any protocol run).
func (b *Builder) AddNode(n NodeID) *Builder {
	b.slot(n)
	return b
}

// slot returns n's slot, adding n if it is new.
func (b *Builder) slot(n NodeID) int32 {
	if s, ok := b.index[n]; ok {
		return s
	}
	if b.shared {
		b.index, b.ids, b.shared = maps.Clone(b.index), slices.Clone(b.ids), false
	}
	if b.index == nil {
		b.index = make(map[NodeID]int32)
	}
	s := int32(len(b.ids))
	b.index[n] = s
	b.ids = append(b.ids, n)
	return s
}

// AddEdge inserts the undirected edge {u, v}. A self-loop adds u as a
// node but no edge: knowledge of oneself is implicit and a self-edge
// would corrupt border computations.
func (b *Builder) AddEdge(u, v NodeID) *Builder {
	if u == v {
		b.slot(u)
		return b
	}
	su, sv := b.slot(u), b.slot(v)
	b.edges = append(b.edges, uint64(su)<<32|uint64(sv))
	return b
}

// Build freezes the builder into an immutable Graph. It renumbers the
// slots into sorted NodeID order (nothing to do when the nodes were added
// in that order, as the generators add them), sorts the edges in both
// directions once, and reads the CSR arrays off the sorted, de-duplicated
// list. The builder may be reused afterwards; the Graph does not alias
// anything a later AddNode or AddEdge writes.
func (b *Builder) Build() *Graph {
	n := len(b.ids)
	if !slices.IsSorted(b.ids) {
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(b.ids[x], b.ids[y]) })
		rank := make([]int32, n)
		nodes := make([]NodeID, n)
		for i, s := range order {
			rank[s] = int32(i)
			nodes[i] = b.ids[s]
		}
		for i, id := range nodes {
			b.index[id] = int32(i)
		}
		b.ids = nodes
		for k, e := range b.edges {
			b.edges[k] = uint64(rank[e>>32])<<32 | uint64(rank[uint32(e)])
		}
	}
	arcs := make([]uint64, 0, 2*len(b.edges))
	for _, e := range b.edges {
		arcs = append(arcs, e, e<<32|e>>32)
	}
	slices.Sort(arcs)
	arcs = slices.Compact(arcs)
	g := &Graph{
		nodes:    b.ids,
		index:    b.index,
		csrStart: make([]int32, n+1),
		csrAdj:   make([]int32, len(arcs)),
	}
	for k, a := range arcs {
		g.csrStart[a>>32+1]++
		g.csrAdj[k] = int32(uint32(a))
	}
	for i := 0; i < n; i++ {
		g.csrStart[i+1] += g.csrStart[i]
	}
	b.shared = true
	return g
}

// Nodes returns all nodes in sorted order. The slice is shared; callers must
// not mutate it.
func (g *Graph) Nodes() []NodeID { return g.nodes }

// Len returns |Π|.
func (g *Graph) Len() int { return len(g.nodes) }

// Has reports whether n ∈ Π.
func (g *Graph) Has(n NodeID) bool {
	_, ok := g.index[n]
	return ok
}

// Neighbors returns border(n): the sorted adjacency list of n, rendered
// from the CSR row into a new slice on every call, which the caller owns.
// Unknown nodes have no neighbours. Loops over the graph read
// NeighborIndices, which allocates nothing.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	i, ok := g.index[n]
	if !ok {
		return nil
	}
	row := g.NeighborIndices(i)
	out := make([]NodeID, len(row))
	for k, q := range row {
		out[k] = g.nodes[q]
	}
	return out
}

// Index returns the dense index of n, or -1 if n ∉ Π. Indices are
// assigned in sorted NodeID order, so for any two nodes u, v:
// Index(u) < Index(v) ⇔ u < v.
func (g *Graph) Index(n NodeID) int32 {
	if i, ok := g.index[n]; ok {
		return i
	}
	return -1
}

// ID returns the NodeID of dense index i. It panics if i is out of
// [0, Len), mirroring slice indexing: indices only come from Index or
// NeighborIndices, so an out-of-range value is a programmer error.
func (g *Graph) ID(i int32) NodeID { return g.nodes[i] }

// NeighborIndices returns the neighbours of index i as a slice of the
// graph's CSR adjacency array, in ascending index order. The slice is
// shared; callers must not mutate it.
func (g *Graph) NeighborIndices(i int32) []int32 {
	return g.csrAdj[g.csrStart[i]:g.csrStart[i+1]]
}

// DegreeOf returns the degree of index i without touching the string maps.
func (g *Graph) DegreeOf(i int32) int { return int(g.csrStart[i+1] - g.csrStart[i]) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.csrAdj) / 2 }

// ConnectedComponents returns the vertex sets of the connected components of
// the subgraph G[S] induced by S (paper §3.1, connectedComponents). Each
// component is sorted; components are ordered by their smallest node.
func (g *Graph) ConnectedComponents(s map[NodeID]bool) [][]NodeID {
	visited := make(map[NodeID]bool, len(s))
	members := make([]NodeID, 0, len(s))
	for n := range s {
		members = append(members, n)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	var comps [][]NodeID
	for _, start := range members {
		if visited[start] {
			continue
		}
		comp := []NodeID{}
		stack := []NodeID{start}
		visited[start] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			i, ok := g.index[n]
			if !ok {
				continue
			}
			for _, q := range g.NeighborIndices(i) {
				if m := g.nodes[q]; s[m] && !visited[m] {
					visited[m] = true
					stack = append(stack, m)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// IsConnectedSubset reports whether the induced subgraph G[S] is connected
// (a "region" per §2.2 is a connected subgraph). The empty set is not a
// region.
func (g *Graph) IsConnectedSubset(s map[NodeID]bool) bool {
	if len(s) == 0 {
		return false
	}
	return len(g.ConnectedComponents(s)) == 1
}

// DOT renders the graph in Graphviz DOT format. Nodes listed in crashed are
// filled grey — handy for visualising scenarios.
func (g *Graph) DOT(name string, crashed map[NodeID]bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n  node [shape=circle];\n", name)
	for _, n := range g.nodes {
		if crashed[n] {
			fmt.Fprintf(&sb, "  %q [style=filled, fillcolor=gray70];\n", string(n))
		} else {
			fmt.Fprintf(&sb, "  %q;\n", string(n))
		}
	}
	for i, u := range g.nodes {
		for _, j := range g.NeighborIndices(int32(i)) {
			if int32(i) < j {
				fmt.Fprintf(&sb, "  %q -- %q;\n", string(u), string(g.nodes[j]))
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// SortIDs sorts a slice of node IDs in place and returns it.
func SortIDs(ids []NodeID) []NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ToSet converts a slice of node IDs to a set.
func ToSet(ids []NodeID) map[NodeID]bool {
	s := make(map[NodeID]bool, len(ids))
	for _, n := range ids {
		s[n] = true
	}
	return s
}

// SetToSlice converts a set to a sorted slice.
func SetToSlice(s map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	return SortIDs(out)
}
