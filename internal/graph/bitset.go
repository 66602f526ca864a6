package graph

import "math/bits"

// Bitset is a set of dense node indices (see Graph.Index). It replaces
// map[NodeID]bool in the hot paths of the simulator kernel and the
// protocol automata: membership is one shift and mask instead of a string
// hash, and iteration is in ascending index order — which is ascending
// NodeID order — so no sort is needed for deterministic traversal.
type Bitset []uint64

// NewBitset returns an empty bitset with capacity for indices [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Reset returns an empty bitset over [0, n), reusing b's words when it
// has enough of them (b's contents are cleared).
func (b Bitset) Reset(n int) Bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return NewBitset(n)
	}
	b = b[:words]
	clear(b)
	return b
}

// Has reports whether index i is in the set.
func (b Bitset) Has(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Set inserts index i.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << uint(i&63) }

// Unset removes index i.
func (b Bitset) Unset(i int32) { b[i>>6] &^= 1 << uint(i&63) }

// Count returns the number of indices in the set.
func (b Bitset) Count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clone returns an independent copy.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}

// ForEach calls fn for every member index in ascending order.
func (b Bitset) ForEach(fn func(i int32)) {
	for w, word := range b {
		for word != 0 {
			fn(int32(w<<6 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// AppendIndices appends the member indices to dst in ascending order and
// returns the extended slice (reusing dst's capacity).
func (b Bitset) AppendIndices(dst []int32) []int32 {
	for w, word := range b {
		for word != 0 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
