package obs

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

// TestHistExactSmallValues: values below 2^histSubBits are recorded
// exactly — percentiles and max equal the reference nearest-rank values.
func TestHistExactSmallValues(t *testing.T) {
	var h Hist
	for v := int64(10); v <= 100; v += 10 {
		h.Add(v)
	}
	if h.Count() != 10 {
		t.Fatalf("count %d, want 10", h.Count())
	}
	if got := h.Percentile(50); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := h.Percentile(90); got != 90 {
		t.Fatalf("p90 = %d, want 90", got)
	}
	if got := h.Percentile(99); got != 100 {
		t.Fatalf("p99 = %d, want 100", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %d, want 100", got)
	}
	if got := h.Mean(); got != 55 {
		t.Fatalf("mean = %v, want 55", got)
	}
}

// TestHistBucketInvariants: histIndex/histLow are a monotone bucketing
// with bounded relative error across the full value range.
func TestHistBucketInvariants(t *testing.T) {
	vals := []int64{0, 1, 2, 127, 128, 129, 255, 256, 257, 1023, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		idx := histIndex(v)
		lo, hi := histLow(idx), histLow(idx+1)
		if v < lo || v >= hi {
			t.Fatalf("v=%d outside its bucket [%d, %d)", v, lo, hi)
		}
		if v > 0 && float64(v-lo)/float64(v) > 1.0/float64(int64(1)<<histSubBits) {
			t.Fatalf("v=%d: bucket lower bound %d exceeds relative error bound", v, lo)
		}
	}
	for i := 0; i < 4000; i++ {
		if histLow(i) >= histLow(i+1) {
			t.Fatalf("histLow not strictly increasing at %d", i)
		}
	}
}

// TestHistPercentilesApproximate: against a sorted reference over random
// large values, every percentile is within the bucket error bound.
func TestHistPercentilesApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Hist
	var ref []int64
	for i := 0; i < 20000; i++ {
		v := rng.Int63n(1 << 22)
		h.Add(v)
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []int{1, 25, 50, 90, 99} {
		rank := (p*len(ref) + 99) / 100
		want := ref[rank-1]
		got := h.Percentile(p)
		if got > want {
			t.Fatalf("p%d = %d above exact %d (bucket lows cannot overshoot)", p, got, want)
		}
		if want > 0 && float64(want-got)/float64(want) > 2.0/float64(int64(1)<<histSubBits) {
			t.Fatalf("p%d = %d too far below exact %d", p, got, want)
		}
	}
	if h.Max() != ref[len(ref)-1] {
		t.Fatalf("max %d, want exact %d", h.Max(), ref[len(ref)-1])
	}
}

// TestHistMerge: merging equals adding everything into one histogram.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var a, b, all Hist
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 16)
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	a.Merge(nil)
	if a.Count() != all.Count() || a.Max() != all.Max() || a.Mean() != all.Mean() {
		t.Fatalf("merge diverged: %d/%d/%v vs %d/%d/%v",
			a.Count(), a.Max(), a.Mean(), all.Count(), all.Max(), all.Mean())
	}
	for _, p := range []int{10, 50, 95, 100} {
		if a.Percentile(p) != all.Percentile(p) {
			t.Fatalf("p%d diverged after merge", p)
		}
	}
}

// TestHistIgnoresNegative: the undecided sentinel (-1) is not recorded.
func TestHistIgnoresNegative(t *testing.T) {
	var h Hist
	h.Add(-1)
	if h.Count() != 0 {
		t.Fatal("negative value recorded")
	}
}

// TestHistBuckets: the exported buckets cover every sample exactly once.
func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{3, 3, 200, 1 << 15} {
		h.Add(v)
	}
	var total int64
	for _, b := range h.Buckets() {
		if b.Lo >= b.Hi {
			t.Fatalf("malformed bucket %+v", b)
		}
		total += b.Count
	}
	if total != h.Count() {
		t.Fatalf("buckets cover %d samples, want %d", total, h.Count())
	}
}

// TestHistAscendingAddsAmortised: a run's lags mostly rise, so a new
// maximum is the common case, and growing the buckets for it must not copy
// them every time. A thousand ascending values open a new last bucket 495
// times; growing to the exact size allocated each time. The growth must not
// show in the histogram either: its JSON and a merge of it are the same
// bytes as those of the same values added largest first (one allocation
// of the final size).
func TestHistAscendingAddsAmortised(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var h Hist
		for v := int64(0); v < 1000; v++ {
			h.Add(v * 37)
		}
	})
	if allocs > 20 {
		t.Fatalf("1000 ascending adds allocated %v times, want ≤ 20", allocs)
	}
	var up, down Hist
	for v := int64(0); v < 1000; v++ {
		up.Add(v * 37)
		down.Add((999 - v) * 37)
	}
	var mergedUp, mergedDown Hist
	mergedUp.Merge(&up)
	mergedDown.Merge(&down)
	for _, pair := range [][2]*Hist{{&up, &down}, {&mergedUp, &mergedDown}} {
		a, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("ascending adds encode as\n%s\nlargest first as\n%s", a, b)
		}
	}
}
