package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
)

// This file provides the topology generators used by the examples, the test
// suite and the experiment harness. Every generator is deterministic given
// its parameters (and seed, where randomised), so experiment tables are
// reproducible bit for bit. A generator names its nodes once, into one
// backing string (see idTable); most add them in sorted order, which
// spares Build its renumbering.

// GridID names the node at row r, column c of a generated grid. Zero-padding
// keeps lexicographic order consistent with row-major order for grids up to
// 10000 nodes per side, which makes test fixtures easy to read.
func GridID(r, c int) NodeID {
	var buf [24]byte
	return NodeID(appendGridID(buf[:0], r, c))
}

// appendGridID appends GridID(r, c) to dst.
func appendGridID(dst []byte, r, c int) []byte {
	dst = appendPadded(append(dst, 'n'), r, 4)
	return appendPadded(append(dst, '-'), c, 4)
}

// appendPadded appends v in decimal, zero-padded to width characters sign
// included, exactly as fmt's %0<width>d prints it.
func appendPadded(dst []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = uint64(-int64(v))
		width--
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for k := len(d); k < width; k++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// idTable names the nodes 0 … n−1 of a generated topology: appendID writes
// node i's ID, all IDs go into one string, and each NodeID is a slice of
// it — four allocations for the whole topology instead of one per ID.
// width is the usual ID length, a capacity hint.
func idTable(n, width int, appendID func(dst []byte, i int) []byte) []NodeID {
	n = max(n, 0)
	buf := make([]byte, 0, n*width)
	ends := make([]int32, n)
	for i := range ends {
		buf = appendID(buf, i)
		ends[i] = int32(len(buf))
	}
	all := string(buf)
	ids := make([]NodeID, n)
	start := int32(0)
	for i, end := range ends {
		ids[i] = NodeID(all[start:end])
		start = end
	}
	return ids
}

// gridIDs names a rows×cols grid in row-major order: GridID(r, c) is
// gridIDs(rows, cols)[r*cols+c].
func gridIDs(rows, cols int) []NodeID {
	return idTable(rows*cols, 10, func(dst []byte, i int) []byte {
		return appendGridID(dst, i/cols, i%cols)
	})
}

// Grid builds a rows×cols 4-neighbour mesh. Grids model the
// physical-proximity topologies of §2.1 (correlated failures take out a
// contiguous block).
func Grid(rows, cols int) *Graph {
	ids := gridIDs(rows, cols)
	b := newBuilder(len(ids), 2*len(ids))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := ids[r*cols+c]
			b.AddNode(n)
			if r+1 < rows {
				b.AddEdge(n, ids[(r+1)*cols+c])
			}
			if c+1 < cols {
				b.AddEdge(n, ids[r*cols+c+1])
			}
		}
	}
	return b.Build()
}

// Torus builds a rows×cols 4-neighbour mesh with wraparound edges, removing
// the boundary effects of Grid.
func Torus(rows, cols int) *Graph {
	ids := gridIDs(rows, cols)
	b := NewBuilder()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n := ids[r*cols+c]
			b.AddNode(n)
			b.AddEdge(n, ids[(r+1)%rows*cols+c])
			b.AddEdge(n, ids[r*cols+(c+1)%cols])
		}
	}
	return b.Build()
}

// RingID names the i-th node of a generated ring.
func RingID(i int) NodeID {
	var buf [24]byte
	return NodeID(appendRingID(buf[:0], i))
}

// appendRingID appends RingID(i) to dst.
func appendRingID(dst []byte, i int) []byte { return appendPadded(append(dst, 'r'), i, 6) }

// rngs recycles the random generators of the randomised generators: a
// math/rand source is a 4.9 kB array, the largest allocation of a small
// generated topology. seeded takes one; return it with rngs.Put.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// seeded returns a generator from rngs seeded with seed: the stream
// rand.New(rand.NewSource(seed)) would produce.
func seeded(seed int64) *rand.Rand {
	rng := rngs.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// ringIDs names nodes 0 … n−1 as RingID does.
func ringIDs(n int) []NodeID { return idTable(n, 7, appendRingID) }

// Ring builds an n-cycle — the classic overlay shape of the paper's §1
// motivation (DHT-like overlays where neighbourhood mirrors key proximity).
func Ring(n int) *Graph {
	ids := ringIDs(n)
	b := newBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		if n > 1 {
			b.AddEdge(ids[i], ids[(i+1)%n])
		}
	}
	return b.Build()
}

// Chord builds an n-node ring with additional finger edges at power-of-two
// distances, approximating a Chord-style DHT overlay.
func Chord(n int) *Graph {
	ids := ringIDs(n)
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		if n > 1 {
			b.AddEdge(ids[i], ids[(i+1)%n])
		}
		for d := 2; d < n; d *= 2 {
			b.AddEdge(ids[i], ids[(i+d)%n])
		}
	}
	return b.Build()
}

// Line builds an n-node path graph.
func Line(n int) *Graph {
	ids := ringIDs(n)
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		if i > 0 {
			b.AddEdge(ids[i-1], ids[i])
		}
	}
	return b.Build()
}

// Complete builds the complete graph K_n: every node knows every other, the
// degenerate "global knowledge" case the paper moves away from.
func Complete(n int) *Graph {
	ids := ringIDs(n)
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		for j := 0; j < i; j++ {
			b.AddEdge(ids[j], ids[i])
		}
	}
	return b.Build()
}

// Star builds a star with one hub and n-1 leaves; the hub is leaf-border of
// every leaf region, exercising the |border| = 1 edge case.
func Star(n int) *Graph {
	ids := ringIDs(max(n, 1))
	b := NewBuilder()
	b.AddNode(ids[0])
	for i := 1; i < n; i++ {
		b.AddEdge(ids[0], ids[i])
	}
	return b.Build()
}

// Tree builds a complete k-ary tree with the given number of nodes.
func Tree(n, arity int) *Graph {
	ids := ringIDs(n)
	if arity < 1 {
		arity = 2
	}
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		if i > 0 {
			b.AddEdge(ids[(i-1)/arity], ids[i])
		}
	}
	return b.Build()
}

// ErdosRenyi builds G(n, p) plus a Hamiltonian cycle to guarantee
// connectivity (isolated survivors would make border/termination reasoning
// vacuous in tests). Deterministic for a given seed.
func ErdosRenyi(n int, p float64, seed int64) *Graph {
	ids := ringIDs(n)
	rng := seeded(seed)
	defer rngs.Put(rng)
	b := newBuilder(n, n+int(min(max(p, 0), 1)*float64(n*(n-1)/2)))
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		if n > 1 {
			b.AddEdge(ids[i], ids[(i+1)%n])
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(ids[i], ids[j])
			}
		}
	}
	return b.Build()
}

// SmallWorld builds a Watts–Strogatz small world: a ring lattice where each
// node connects to its k nearest neighbours, with each edge rewired to a
// random endpoint with probability beta. Connectivity is preserved by
// keeping the base cycle.
func SmallWorld(n, k int, beta float64, seed int64) *Graph {
	ids := ringIDs(n)
	rng := seeded(seed)
	defer rngs.Put(rng)
	b := newBuilder(n, n*(k/2))
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
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
			b.AddEdge(ids[i], ids[j])
		}
	}
	return b.Build()
}

// RandomGeometric scatters n nodes uniformly on the unit square and
// connects pairs within the given radius, then adds a nearest-neighbour
// chain for connectivity. This is the "topology mirrors physical proximity"
// setting from §2.1. A size below 1 yields the empty graph; a negative
// radius counts as 0, so it adds no proximity edge and only the chain
// remains.
func RandomGeometric(n int, radius float64, seed int64) *Graph {
	if n < 1 {
		return NewBuilder().Build()
	}
	ids := ringIDs(n)
	rng := seeded(seed)
	defer rngs.Put(rng)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		if n > 1 {
			b.AddEdge(ids[i], ids[(i+1)%n])
		}
	}
	radius = max(radius, 0)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(ids[i], ids[j])
			}
		}
	}
	return b.Build()
}

// Clustered builds `clusters` dense blobs of `size` nodes (intra-cluster
// edge probability pIn) joined in a cycle by `bridges` inter-cluster edges.
// Correlated failures within one blob are the canonical crashed-region
// workload. A cluster count or size below 1 yields the empty graph.
func Clustered(clusters, size, bridges int, pIn float64, seed int64) *Graph {
	if clusters < 1 || size < 1 {
		return NewBuilder().Build()
	}
	rng := seeded(seed)
	defer rngs.Put(rng)
	ids := idTable(clusters*size, 9, func(dst []byte, k int) []byte {
		dst = appendPadded(append(dst, 'c'), k/size, 3)
		return appendPadded(append(dst, '-'), k%size, 4)
	})
	id := func(c, i int) NodeID { return ids[c*size+i] }
	b := newBuilder(len(ids), len(ids)*(1+int(pIn*float64(size)/2))+clusters*bridges)
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

// Fig1 reproduces the world graph of the paper's Fig. 1: a European
// crashed region F1 = {marseille, lyon, geneva} whose border is exactly
// {paris, london, madrid, roma} (the detectors named in §2.1), and a
// Pacific crashed region F2 = {seoul, osaka, taipei, manila} bordered by
// {tokyo, vancouver, portland, sydney, beijing}.
//
// berlin is paris's still-correct neighbour: when paris later crashes
// (Fig. 1(b)), F1 grows into F3 = F1 ∪ {paris} with border
// {london, madrid, roma, berlin}, which is the conflicting-views scenario.
func Fig1() (g *Graph, f1, f2 []NodeID) {
	b := NewBuilder()
	// F1: the "European" crashed region.
	f1 = []NodeID{"geneva", "lyon", "marseille"}
	b.AddEdge("marseille", "lyon")
	b.AddEdge("lyon", "geneva")
	b.AddEdge("marseille", "geneva")
	// Border of F1: paris, london, madrid, roma.
	b.AddEdge("paris", "lyon")
	b.AddEdge("paris", "geneva")
	b.AddEdge("london", "marseille")
	b.AddEdge("madrid", "marseille")
	b.AddEdge("roma", "geneva")
	// Surviving European mesh; berlin touches F1 only through paris.
	b.AddEdge("london", "paris")
	b.AddEdge("paris", "berlin")
	b.AddEdge("london", "berlin")
	b.AddEdge("london", "madrid")
	b.AddEdge("madrid", "roma")
	b.AddEdge("roma", "berlin")

	// F2: the "Pacific" crashed region.
	f2 = []NodeID{"manila", "osaka", "seoul", "taipei"}
	b.AddEdge("seoul", "osaka")
	b.AddEdge("osaka", "taipei")
	b.AddEdge("taipei", "manila")
	b.AddEdge("seoul", "manila")
	// Border of F2: tokyo, vancouver, portland, sydney, beijing.
	b.AddEdge("seoul", "tokyo")
	b.AddEdge("seoul", "beijing")
	b.AddEdge("osaka", "tokyo")
	b.AddEdge("osaka", "vancouver")
	b.AddEdge("taipei", "portland")
	b.AddEdge("manila", "sydney")
	// Surviving Pacific rim.
	b.AddEdge("tokyo", "vancouver")
	b.AddEdge("vancouver", "portland")
	b.AddEdge("portland", "sydney")
	b.AddEdge("sydney", "beijing")
	b.AddEdge("beijing", "tokyo")

	// The two hemispheres stay connected through correct nodes, so the whole
	// system is one graph, as in the paper's world map.
	b.AddEdge("london", "vancouver")
	b.AddEdge("madrid", "sydney")
	return b.Build(), f1, f2
}

// Fig2 reproduces the faulty-domain cluster of the paper's Fig. 2: four
// faulty domains F1‖F2‖F3‖F4 that are pairwise adjacent in a chain through
// shared border nodes. Returns the graph and the four domains.
func Fig2() (g *Graph, domains [][]NodeID) {
	b := NewBuilder()
	mk := func(prefix string, n int) []NodeID {
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(fmt.Sprintf("%s%d", prefix, i))
			if i > 0 {
				b.AddEdge(ids[i-1], ids[i])
			} else {
				b.AddNode(ids[i])
			}
		}
		return ids
	}
	d1 := mk("f1-", 3)
	d2 := mk("f2-", 2)
	d3 := mk("f3-", 4)
	d4 := mk("f4-", 2)
	// Shared border nodes making consecutive domains adjacent.
	shared := []NodeID{"s12", "s23", "s34"}
	b.AddEdge(d1[2], shared[0])
	b.AddEdge(shared[0], d2[0])
	b.AddEdge(d2[1], shared[1])
	b.AddEdge(shared[1], d3[0])
	b.AddEdge(d3[3], shared[2])
	b.AddEdge(shared[2], d4[0])
	// Private border nodes so every domain has a correct border beyond the
	// shared ones, and the survivors form a connected backbone.
	priv := []NodeID{"b1", "b2", "b3", "b4"}
	b.AddEdge(d1[0], priv[0])
	b.AddEdge(d2[0], priv[1])
	b.AddEdge(d3[1], priv[2])
	b.AddEdge(d4[1], priv[3])
	b.AddEdge(priv[0], priv[1])
	b.AddEdge(priv[1], priv[2])
	b.AddEdge(priv[2], priv[3])
	b.AddEdge(priv[0], shared[0])
	b.AddEdge(priv[1], shared[1])
	b.AddEdge(priv[2], shared[2])
	return b.Build(), [][]NodeID{d1, d2, d3, d4}
}

// BarabasiAlbert builds a scale-free preferential-attachment graph: each
// new node attaches m edges to existing nodes with probability
// proportional to their degree. Hubs emerge, modelling the skewed
// connectivity of real overlays.
func BarabasiAlbert(n, m int, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := seeded(seed)
	defer rngs.Put(rng)
	ids := ringIDs(n)
	b := newBuilder(n, m*n)
	// Degree-proportional sampling via the repeated-endpoints trick: every
	// edge contributes both endpoints to the pool.
	var pool []int
	// Seed clique of m+1 nodes.
	for i := 0; i <= m && i < n; i++ {
		for j := 0; j < i; j++ {
			b.AddEdge(ids[i], ids[j])
			pool = append(pool, i, j)
		}
	}
	targets := make([]int, 0, m)
	for i := m + 1; i < n; i++ {
		// Targets are distinct and kept in draw order, which fixes the
		// order edges are added in.
		targets = targets[:0]
		for len(targets) < m {
			target := pool[rng.Intn(len(pool))]
			if target != i && !slices.Contains(targets, target) {
				targets = append(targets, target)
			}
		}
		for _, t := range targets {
			b.AddEdge(ids[i], ids[t])
			pool = append(pool, i, t)
		}
	}
	return b.Build()
}

// Hypercube builds the d-dimensional hypercube (2^d nodes, degree d) — a
// classic structured-overlay topology. A negative d yields the empty graph.
func Hypercube(d int) *Graph {
	if d < 0 {
		return NewBuilder().Build()
	}
	n := 1 << d
	ids := ringIDs(n)
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(ids[i])
		for bit := 0; bit < d; bit++ {
			b.AddEdge(ids[i], ids[i^(1<<bit)])
		}
	}
	return b.Build()
}

// GridBlock returns the node IDs of the k×k block of a grid anchored at
// (r0, c0) — the standard correlated-failure region for grid experiments.
func GridBlock(r0, c0, k int) []NodeID {
	ids := make([]NodeID, 0, k*k)
	for r := r0; r < r0+k; r++ {
		for c := c0; c < c0+k; c++ {
			ids = append(ids, GridID(r, c))
		}
	}
	return ids
}

// CenterBlock returns a k×k block centred in a rows×cols grid.
func CenterBlock(rows, cols, k int) []NodeID {
	return GridBlock((rows-k)/2, (cols-k)/2, k)
}

// Diameter computes the eccentricity-maximum over all nodes via repeated
// BFS. Intended for test-sized graphs (O(V·E)).
func (g *Graph) Diameter() int {
	maxDist := int32(0)
	dist := make([]int32, len(g.nodes))
	queue := make([]int32, 0, len(g.nodes))
	for src := range g.nodes {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], int32(src))
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range g.NeighborIndices(n) {
				if dist[m] < 0 {
					dist[m] = dist[n] + 1
					maxDist = max(maxDist, dist[m])
					queue = append(queue, m)
				}
			}
		}
	}
	return int(maxDist)
}
