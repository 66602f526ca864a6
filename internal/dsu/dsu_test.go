package dsu

import (
	"math/rand"
	"testing"
)

func TestSingletons(t *testing.T) {
	d := New(5)
	for i := int32(0); i < 5; i++ {
		if got := d.Find(i); got != i {
			t.Errorf("Find(%d) = %d, want %d", i, got, i)
		}
		if got := d.SizeOf(i); got != 1 {
			t.Errorf("SizeOf(%d) = %d, want 1", i, got)
		}
	}
	if d.Same(0, 1) {
		t.Error("fresh singletons reported as same")
	}
}

func TestUnionMergesAndCounts(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(2, 3)
	if d.Same(0, 2) {
		t.Fatal("disjoint pairs merged")
	}
	d.Union(1, 2)
	for _, pair := range [][2]int32{{0, 3}, {1, 2}, {0, 2}} {
		if !d.Same(pair[0], pair[1]) {
			t.Errorf("Same(%d, %d) = false after chain of unions", pair[0], pair[1])
		}
	}
	if got := d.SizeOf(3); got != 4 {
		t.Errorf("SizeOf(3) = %d, want 4", got)
	}
	if got := d.SizeOf(5); got != 1 {
		t.Errorf("SizeOf(5) = %d, want 1", got)
	}
	// Union of already-joined sets is a no-op.
	r := d.Find(0)
	if got := d.Union(0, 3); got != r {
		t.Errorf("redundant Union returned %d, want existing root %d", got, r)
	}
	if got := d.SizeOf(0); got != 4 {
		t.Errorf("SizeOf(0) = %d after redundant union, want 4", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	d := New(4)
	d.Union(0, 1)
	c := d.Clone()
	c.Union(2, 3)
	if d.Same(2, 3) {
		t.Error("union on clone leaked into original")
	}
	if !c.Same(0, 1) {
		t.Error("clone lost pre-existing union")
	}
}

// TestAgainstNaive cross-checks random union sequences against a quadratic
// reference.
func TestAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 64
	for trial := 0; trial < 50; trial++ {
		d := New(n)
		label := make([]int, n) // reference: explicit component labels
		for i := range label {
			label[i] = i
		}
		for op := 0; op < 40; op++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			d.Union(a, b)
			la, lb := label[a], label[b]
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if d.Same(i, j) != (label[i] == label[j]) {
					t.Fatalf("trial %d: Same(%d, %d) = %v disagrees with reference",
						trial, i, j, d.Same(i, j))
				}
			}
			size := 0
			for j := range label {
				if label[j] == label[i] {
					size++
				}
			}
			if int(d.SizeOf(i)) != size {
				t.Fatalf("trial %d: SizeOf(%d) = %d, want %d", trial, i, d.SizeOf(i), size)
			}
		}
	}
}

// twoArray is the union-find this package kept before a root's parent
// word began to hold −size: a parent array in which roots point at
// themselves, and a separate size array. It is the reference of
// TestMatchesTwoArrayReference.
type twoArray struct {
	parent []int32
	size   []int32
}

func newTwoArray(n int) *twoArray {
	d := &twoArray{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

func (d *twoArray) find(i int32) int32 {
	for d.parent[i] != i {
		d.parent[i] = d.parent[d.parent[i]]
		i = d.parent[i]
	}
	return i
}

func (d *twoArray) union(a, b int32) int32 {
	ra, rb := d.find(a), d.find(b)
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

func (d *twoArray) add() int32 {
	d.parent = append(d.parent, int32(len(d.parent)))
	d.size = append(d.size, 1)
	return int32(len(d.parent) - 1)
}

func (d *twoArray) clone() *twoArray {
	return &twoArray{
		parent: append([]int32(nil), d.parent...),
		size:   append([]int32(nil), d.size...),
	}
}

// TestMatchesTwoArrayReference replays random unions and Adds on the
// one-array DSU and on the two-array reference: every Union and Find
// returns the same representative (not just the same partition, since
// callers key state on roots), every Add the same new index, SizeOf
// agrees, and a clone taken midway — of both, after Reset reused the
// array — evolves independently of its original. Half the trials start
// from Reset(0) and grow by Add alone, as a crash witness's union-find
// does.
func TestMatchesTwoArrayReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := new(DSU)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(80)
		if trial%2 == 1 {
			n = 0
		}
		d.Reset(n)
		ref := newTwoArray(n)
		var c *DSU
		var cref *twoArray
		ops := rng.Intn(3 * (n + 20))
		for op := 0; op < ops; op++ {
			if op == ops/2 {
				c, cref = d.Clone(), ref.clone()
			}
			if n == 0 || rng.Intn(4) == 0 {
				if got, want := d.Add(), ref.add(); got != want {
					t.Fatalf("trial %d op %d: Add() = %d, reference %d", trial, op, got, want)
				}
				if c != nil {
					if got, want := c.Add(), cref.add(); got != want {
						t.Fatalf("trial %d op %d: clone Add() = %d, reference %d", trial, op, got, want)
					}
				}
				n++
				continue
			}
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if got, want := d.Union(a, b), ref.union(a, b); got != want {
				t.Fatalf("trial %d op %d: Union(%d, %d) = %d, reference %d", trial, op, a, b, got, want)
			}
			if c != nil && rng.Intn(2) == 0 {
				x, y := int32(rng.Intn(c.Len())), int32(rng.Intn(c.Len()))
				if got, want := c.Union(x, y), cref.union(x, y); got != want {
					t.Fatalf("trial %d op %d: clone Union(%d, %d) = %d, reference %d", trial, op, x, y, got, want)
				}
			}
		}
		for _, pair := range []struct {
			d   *DSU
			ref *twoArray
		}{{d, ref}, {c, cref}} {
			if pair.d == nil {
				continue
			}
			if pair.d.Len() != len(pair.ref.parent) {
				t.Fatalf("trial %d: Len = %d, want %d", trial, pair.d.Len(), len(pair.ref.parent))
			}
			for i := int32(0); i < int32(pair.d.Len()); i++ {
				if got, want := pair.d.Find(i), pair.ref.find(i); got != want {
					t.Fatalf("trial %d: Find(%d) = %d, reference %d", trial, i, got, want)
				}
				if got, want := pair.d.SizeOf(i), pair.ref.size[pair.ref.find(i)]; got != want {
					t.Fatalf("trial %d: SizeOf(%d) = %d, reference %d", trial, i, got, want)
				}
			}
		}
	}
}
