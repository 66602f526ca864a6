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
	// p holds one word per index: the parent of a non-root, and −size of
	// its set at a root. Parents are indices, so they are never negative.
	p []int32
}

// New returns a DSU over n singleton sets {0}, {1}, …, {n-1}.
func New(n int) *DSU {
	d := new(DSU)
	d.Reset(n)
	return d
}

// Reset makes d the DSU New(n) returns, reusing its array when it is
// large enough.
func (d *DSU) Reset(n int) {
	if cap(d.p) < n {
		d.p = make([]int32, n)
	}
	d.p = d.p[:n]
	for i := range d.p {
		d.p[i] = -1
	}
}

// Add appends a singleton set to the index range and returns its index,
// the old Len. A DSU built by Adds over Reset(0) is keyed by whatever its
// user numbers in order of arrival, and costs one word per element added,
// not per element of a larger universe.
func (d *DSU) Add() int32 {
	d.p = append(d.p, -1)
	return int32(len(d.p) - 1)
}

// Len returns the size of the index range.
func (d *DSU) Len() int { return len(d.p) }

// Find returns the canonical representative of i's set, halving the path
// along the way.
func (d *DSU) Find(i int32) int32 {
	for {
		up := d.p[i]
		if up < 0 {
			return i
		}
		top := d.p[up]
		if top < 0 {
			return up
		}
		d.p[i] = top
		i = top
	}
}

// Union merges the sets of a and b (by size; on a tie a's root stays the
// root) and returns the representative of the merged set.
func (d *DSU) Union(a, b int32) int32 {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra
	}
	if d.p[ra] > d.p[rb] { // −size: the larger value is the smaller set
		ra, rb = rb, ra
	}
	d.p[ra] += d.p[rb]
	d.p[rb] = ra
	return ra
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }

// SizeOf returns the size of i's set.
func (d *DSU) SizeOf(i int32) int32 { return -d.p[d.Find(i)] }

// Clone returns an independent deep copy.
func (d *DSU) Clone() *DSU { return &DSU{p: append([]int32(nil), d.p...)} }
