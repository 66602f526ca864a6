// Package dsu implements a disjoint-set union (union-find) over dense
// int32 indices — the incremental-connectivity workhorse shared by the
// protocol core (connected components of the locally known crashed set),
// the livenet runtime (crashed-region tracking), the whole-system baseline,
// the bounded model checker and the CD1–CD7 checker (faulty-cluster
// closure).
//
// The structure uses union by size with path halving, giving the usual
// near-constant amortised cost per operation. It is deliberately minimal:
// no node payloads, no deletion — crashes only accumulate, which is exactly
// the monotone setting of the paper (§2.2: processes fail, edges do not).
package dsu

// DSU is a union-find over the index range [0, Len). Every index starts in
// its own singleton set. The zero value is an empty structure; build with
// New. A DSU is not safe for concurrent use.
type DSU struct {
	parent []int32
	size   []int32
}

// New returns a DSU over n singleton sets {0}, {1}, …, {n-1}.
func New(n int) *DSU {
	d := new(DSU)
	d.Reset(n)
	return d
}

// Reset makes d the DSU New(n) returns, reusing its arrays when they are
// large enough.
func (d *DSU) Reset(n int) {
	if cap(d.parent) < n {
		d.parent, d.size = make([]int32, n), make([]int32, n)
	}
	d.parent, d.size = d.parent[:n], d.size[:n]
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
}

// Len returns the size of the index range.
func (d *DSU) Len() int { return len(d.parent) }

// Find returns the canonical representative of i's set, halving the path
// along the way.
func (d *DSU) Find(i int32) int32 {
	for d.parent[i] != i {
		d.parent[i] = d.parent[d.parent[i]]
		i = d.parent[i]
	}
	return i
}

// Union merges the sets of a and b (by size) and returns the representative
// of the merged set.
func (d *DSU) Union(a, b int32) int32 {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return ra
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }

// SizeOf returns the size of i's set.
func (d *DSU) SizeOf(i int32) int32 { return d.size[d.Find(i)] }

// Clone returns an independent deep copy.
func (d *DSU) Clone() *DSU {
	return &DSU{
		parent: append([]int32(nil), d.parent...),
		size:   append([]int32(nil), d.size...),
	}
}
