package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// The map-of-maps Builder that the slot-and-edge-list Builder replaced,
// and the generators as they were written against it (fmt-built IDs, a
// NodeID pool in Barabási–Albert), kept verbatim as the oracle
// FuzzBuilderMatchesReference compares the Builder and every generator
// against. Names are prefixed so they do not clash; the reference graph
// keeps only the accessors the comparison reads.

// referenceBuilder accumulates nodes and edges and produces an immutable referenceGraph.
type referenceBuilder struct {
	adj map[NodeID]map[NodeID]bool
}

// newReferenceBuilder returns an empty graph builder.
func newReferenceBuilder() *referenceBuilder {
	return &referenceBuilder{adj: make(map[NodeID]map[NodeID]bool)}
}

// AddNode ensures n is present (isolated nodes are allowed: a node with no
// neighbours simply never participates in any protocol run).
func (b *referenceBuilder) AddNode(n NodeID) *referenceBuilder {
	if _, ok := b.adj[n]; !ok {
		b.adj[n] = make(map[NodeID]bool)
	}
	return b
}

// AddEdge inserts the undirected edge {u, v}. A self-loop adds u as a
// node but no edge: knowledge of oneself is implicit and a self-edge
// would corrupt border computations.
func (b *referenceBuilder) AddEdge(u, v NodeID) *referenceBuilder {
	if u == v {
		return b.AddNode(u)
	}
	b.AddNode(u)
	b.AddNode(v)
	b.adj[u][v] = true
	b.adj[v][u] = true
	return b
}

// Build freezes the builder into an immutable referenceGraph. The builder may be
// reused afterwards; the referenceGraph does not alias its maps.
func (b *referenceBuilder) Build() *referenceGraph {
	g := &referenceGraph{adj: make(map[NodeID][]NodeID, len(b.adj))}
	for n, nbrs := range b.adj {
		list := make([]NodeID, 0, len(nbrs))
		for m := range nbrs {
			list = append(list, m)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		g.adj[n] = list
		g.nodes = append(g.nodes, n)
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	g.index = make(map[NodeID]int32, len(g.nodes))
	for i, n := range g.nodes {
		g.index[n] = int32(i)
	}
	g.csrStart = make([]int32, len(g.nodes)+1)
	total := 0
	for _, n := range g.nodes {
		total += len(g.adj[n])
	}
	g.csrAdj = make([]int32, 0, total)
	for i, n := range g.nodes {
		for _, m := range g.adj[n] {
			g.csrAdj = append(g.csrAdj, g.index[m])
		}
		g.csrStart[i+1] = int32(len(g.csrAdj))
	}
	return g
}

type referenceGraph struct {
	adj   map[NodeID][]NodeID // sorted adjacency lists
	nodes []NodeID            // sorted; nodes[i] is the NodeID of index i
	index map[NodeID]int32    // inverse of nodes
	// CSR adjacency over indices: the neighbours of index i are
	// csrAdj[csrStart[i]:csrStart[i+1]], in ascending index order (which is
	// ascending NodeID order).
	csrStart []int32
	csrAdj   []int32
}

func (g *referenceGraph) Nodes() []NodeID { return g.nodes }

func (g *referenceGraph) Neighbors(n NodeID) []NodeID { return g.adj[n] }

func (g *referenceGraph) Index(n NodeID) int32 {
	if i, ok := g.index[n]; ok {
		return i
	}
	return -1
}

func (g *referenceGraph) NeighborIndices(i int32) []int32 {
	return g.csrAdj[g.csrStart[i]:g.csrStart[i+1]]
}

func (g *referenceGraph) NumEdges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// refGridID names the node at row r, column c of a generated grid. Zero-padding
// keeps lexicographic order consistent with row-major order for grids up to
// 10000 nodes per side, which makes test fixtures easy to read.
func refGridID(r, c int) NodeID {
	return NodeID(fmt.Sprintf("n%04d-%04d", r, c))
}

// refGrid builds a rows×cols 4-neighbour mesh. Grids model the
// physical-proximity topologies of §2.1 (correlated failures take out a
// contiguous block).
func refGrid(rows, cols int) *referenceGraph {
	b := newReferenceBuilder()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := refGridID(r, c)
			b.AddNode(n)
			if r+1 < rows {
				b.AddEdge(n, refGridID(r+1, c))
			}
			if c+1 < cols {
				b.AddEdge(n, refGridID(r, c+1))
			}
		}
	}
	return b.Build()
}

// refTorus builds a rows×cols 4-neighbour mesh with wraparound edges, removing
// the boundary effects of Grid.
func refTorus(rows, cols int) *referenceGraph {
	b := newReferenceBuilder()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := refGridID(r, c)
			b.AddNode(n)
			b.AddEdge(n, refGridID((r+1)%rows, c))
			b.AddEdge(n, refGridID(r, (c+1)%cols))
		}
	}
	return b.Build()
}

// refRingID names the i-th node of a generated ring.
func refRingID(i int) NodeID { return NodeID(fmt.Sprintf("r%06d", i)) }

// refRing builds an n-cycle — the classic overlay shape of the paper's §1
// motivation (DHT-like overlays where neighbourhood mirrors key proximity).
func refRing(n int) *referenceGraph {
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		if n > 1 {
			b.AddEdge(refRingID(i), refRingID((i+1)%n))
		}
	}
	return b.Build()
}

// refChord builds an n-node ring with additional finger edges at power-of-two
// distances, approximating a Chord-style DHT overlay.
func refChord(n int) *referenceGraph {
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		if n > 1 {
			b.AddEdge(refRingID(i), refRingID((i+1)%n))
		}
		for d := 2; d < n; d *= 2 {
			b.AddEdge(refRingID(i), refRingID((i+d)%n))
		}
	}
	return b.Build()
}

// refLine builds an n-node path graph.
func refLine(n int) *referenceGraph {
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		if i > 0 {
			b.AddEdge(refRingID(i-1), refRingID(i))
		}
	}
	return b.Build()
}

// refComplete builds the complete graph K_n: every node knows every other, the
// degenerate "global knowledge" case the paper moves away from.
func refComplete(n int) *referenceGraph {
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		for j := 0; j < i; j++ {
			b.AddEdge(refRingID(j), refRingID(i))
		}
	}
	return b.Build()
}

// refStar builds a star with one hub and n-1 leaves; the hub is leaf-border of
// every leaf region, exercising the |border| = 1 edge case.
func refStar(n int) *referenceGraph {
	b := newReferenceBuilder()
	hub := refRingID(0)
	b.AddNode(hub)
	for i := 1; i < n; i++ {
		b.AddEdge(hub, refRingID(i))
	}
	return b.Build()
}

// refTree builds a complete k-ary tree with the given number of nodes.
func refTree(n, arity int) *referenceGraph {
	if arity < 1 {
		arity = 2
	}
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		if i > 0 {
			b.AddEdge(refRingID((i-1)/arity), refRingID(i))
		}
	}
	return b.Build()
}

// refErdosRenyi builds G(n, p) plus a Hamiltonian cycle to guarantee
// connectivity (isolated survivors would make border/termination reasoning
// vacuous in tests). Deterministic for a given seed.
func refErdosRenyi(n int, p float64, seed int64) *referenceGraph {
	rng := rand.New(rand.NewSource(seed))
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		if n > 1 {
			b.AddEdge(refRingID(i), refRingID((i+1)%n))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(refRingID(i), refRingID(j))
			}
		}
	}
	return b.Build()
}

// refSmallWorld builds a Watts–Strogatz small world: a ring lattice where each
// node connects to its k nearest neighbours, with each edge rewired to a
// random endpoint with probability beta. Connectivity is preserved by
// keeping the base cycle.
func refSmallWorld(n, k int, beta float64, seed int64) *referenceGraph {
	rng := rand.New(rand.NewSource(seed))
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= k/2; d++ {
			j := (i + d) % n
			if d > 1 && rng.Float64() < beta {
				// Rewire to a uniform random target, keeping the
				// distance-1 cycle intact for connectivity.
				j = rng.Intn(n)
				if j == i {
					j = (i + 1) % n
				}
			}
			b.AddEdge(refRingID(i), refRingID(j))
		}
	}
	return b.Build()
}

// refRandomGeometric scatters n nodes uniformly on the unit square and
// connects pairs within the given radius, then adds a nearest-neighbour
// chain for connectivity. This is the "topology mirrors physical proximity"
// setting from §2.1.
func refRandomGeometric(n int, radius float64, seed int64) *referenceGraph {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		if n > 1 {
			b.AddEdge(refRingID(i), refRingID((i+1)%n))
		}
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(refRingID(i), refRingID(j))
			}
		}
	}
	return b.Build()
}

// refClustered builds `clusters` dense blobs of `size` nodes (intra-cluster
// edge probability pIn) joined in a cycle by `bridges` inter-cluster edges.
// Correlated failures within one blob are the canonical crashed-region
// workload.
func refClustered(clusters, size, bridges int, pIn float64, seed int64) *referenceGraph {
	rng := rand.New(rand.NewSource(seed))
	id := func(c, i int) NodeID { return NodeID(fmt.Sprintf("c%03d-%04d", c, i)) }
	b := newReferenceBuilder()
	for c := 0; c < clusters; c++ {
		for i := 0; i < size; i++ {
			b.AddNode(id(c, i))
			if i > 0 {
				b.AddEdge(id(c, i-1), id(c, i)) // spanning path for connectivity
			}
		}
		for i := 0; i < size; i++ {
			for j := i + 2; j < size; j++ {
				if rng.Float64() < pIn {
					b.AddEdge(id(c, i), id(c, j))
				}
			}
		}
	}
	for c := 0; c < clusters && clusters > 1; c++ {
		next := (c + 1) % clusters
		for k := 0; k < bridges; k++ {
			b.AddEdge(id(c, rng.Intn(size)), id(next, rng.Intn(size)))
		}
	}
	return b.Build()
}

// refBarabasiAlbert builds a scale-free preferential-attachment graph: each
// new node attaches m edges to existing nodes with probability
// proportional to their degree. Hubs emerge, modelling the skewed
// connectivity of real overlays.
func refBarabasiAlbert(n, m int, seed int64) *referenceGraph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := newReferenceBuilder()
	// Degree-proportional sampling via the repeated-endpoints trick: every
	// edge contributes both endpoints to the pool.
	var pool []NodeID
	// Seed clique of m+1 nodes.
	for i := 0; i <= m && i < n; i++ {
		for j := 0; j < i; j++ {
			b.AddEdge(refRingID(i), refRingID(j))
			pool = append(pool, refRingID(i), refRingID(j))
		}
	}
	for i := m + 1; i < n; i++ {
		id := refRingID(i)
		chosen := map[NodeID]bool{}
		// Record targets in draw order: iterating the map would make edge
		// insertion (and hence adjacency order) nondeterministic, breaking
		// the generator determinism contract.
		var targets []NodeID
		for len(chosen) < m {
			target := pool[rng.Intn(len(pool))]
			if target != id && !chosen[target] {
				chosen[target] = true
				targets = append(targets, target)
			}
		}
		for _, t := range targets {
			b.AddEdge(id, t)
			pool = append(pool, id, t)
		}
	}
	return b.Build()
}

// refHypercube builds the d-dimensional hypercube (2^d nodes, degree d) — a
// classic structured-overlay topology.
func refHypercube(d int) *referenceGraph {
	n := 1 << d
	b := newReferenceBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(refRingID(i))
		for bit := 0; bit < d; bit++ {
			b.AddEdge(refRingID(i), refRingID(i^(1<<bit)))
		}
	}
	return b.Build()
}
