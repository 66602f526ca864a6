package obs

import (
	"encoding/json"
	"math/bits"
	"slices"
)

// histSubBits is the sub-bucket resolution of Hist: 2^histSubBits linear
// sub-buckets per power-of-two octave, giving ≤ 1/2^histSubBits ≈ 0.8%
// relative error. Values below 2^histSubBits are recorded exactly.
const histSubBits = 7

// Hist is a bounded-memory HDR-style histogram over non-negative int64
// values — the campaign's per-decision latency distribution. Buckets are
// log₂ octaves subdivided into 2^histSubBits linear sub-buckets, so
// memory is O(log(max value)), never O(samples): recording a decision lag
// is one increment, merging two histograms is element-wise addition, and
// percentiles walk the counts. The zero value is ready to use. Hist is
// not safe for concurrent use; the aggregator merges under its own lock.
type Hist struct {
	counts []uint32
	n      int64
	sum    int64
	max    int64
}

// histIndex maps a value to its bucket. For v < 2^histSubBits the index
// is v itself (exact); above, octave k ≥ histSubBits contributes
// 2^histSubBits buckets of width 2^(k-histSubBits).
func histIndex(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // index of the most significant bit
	shift := k - histSubBits
	return shift<<histSubBits + int(v>>shift)
}

// histLow returns the smallest value mapping to bucket idx — the bucket's
// representative in percentile queries (a ≤ 0.8% underestimate at worst).
func histLow(idx int) int64 {
	if idx < 1<<histSubBits {
		return int64(idx)
	}
	shift := idx>>histSubBits - 1
	return int64(idx-(shift<<histSubBits)) << shift
}

// Add records one value; negative values are ignored (an undecided run's
// sentinel never pollutes the distribution).
func (h *Hist) Add(v int64) {
	if v < 0 {
		return
	}
	idx := histIndex(v)
	if idx >= len(h.counts) {
		// Lags mostly rise within a run, so a new maximum is common:
		// the capacity grows geometrically to amortise it.
		n := len(h.counts)
		h.counts = slices.Grow(h.counts, idx+1-n)[:idx+1]
		clear(h.counts[n:])
	}
	h.counts[idx]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint32, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the exact mean of the recorded values (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the exact maximum recorded value (0 when empty).
func (h *Hist) Max() int64 { return h.max }

// Percentile returns the nearest-rank p-th percentile (p in [0, 100]),
// resolved to the containing bucket's lower bound — except p = 100, which
// returns the exact maximum. Returns 0 when empty.
func (h *Hist) Percentile(p int) int64 {
	if h.n == 0 {
		return 0
	}
	if p >= 100 {
		return h.max
	}
	rank := (int64(p)*h.n + 99) / 100 // ceil(p/100 · n)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return histLow(i)
		}
	}
	return h.max
}

// histJSON is the persistence form of Hist: the trailing-zero-trimmed
// bucket counts plus the exact moments the buckets alone would lose.
type histJSON struct {
	Counts []uint32 `json:"counts,omitempty"`
	N      int64    `json:"n,omitempty"`
	Sum    int64    `json:"sum,omitempty"`
	Max    int64    `json:"max,omitempty"`
}

// MarshalJSON encodes the histogram exactly: a round-tripped Hist merges,
// queries and re-encodes identically to the original. This is what lets
// persisted cell results reconstruct the aggregate bit for bit on resume.
func (h *Hist) MarshalJSON() ([]byte, error) {
	counts := h.counts
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return json.Marshal(histJSON{Counts: counts, N: h.n, Sum: h.sum, Max: h.max})
}

// UnmarshalJSON decodes a histogram previously encoded by MarshalJSON.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var w histJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.counts, h.n, h.sum, h.max = w.Counts, w.N, w.Sum, w.Max
	return nil
}

// HistBucket is one non-empty bucket of an exported distribution:
// values in [Lo, Hi) occurred Count times.
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets exports the non-empty buckets in ascending value order — the
// JSON form of the distribution, bounded by the bucket count rather than
// the sample count.
func (h *Hist) Buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		out = append(out, HistBucket{Lo: histLow(i), Hi: histLow(i + 1), Count: int64(c)})
	}
	return out
}
