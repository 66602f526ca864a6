package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// scanInstance is the reference for instance.merge: the opinion rows and
// waiting sets of one view as plain eager matrices, merged the way the
// package did before rows and vectors carried bitmasks — two loops over
// all |B| slots of every message.
type scanInstance struct {
	rows    [][]Opinion // rows[r][j], r in 1..lastRound
	waiting [][]bool
}

func newScanInstance(border, lastRound int) *scanInstance {
	ref := &scanInstance{rows: make([][]Opinion, lastRound+1), waiting: make([][]bool, lastRound+1)}
	for r := 1; r <= lastRound; r++ {
		ref.rows[r] = make([]Opinion, border)
		ref.waiting[r] = make([]bool, border)
		for j := range ref.waiting[r] {
			ref.waiting[r][j] = true // line 22: waiting[V][r] ← B
		}
	}
	return ref
}

func (ref *scanInstance) merge(r, fromPos int, ops Vector) {
	row := ref.rows[r]
	for j := range row { // lines 23–24: fill ⊥ slots only
		if row[j].Kind == Unknown && ops[j].Kind != Unknown {
			row[j] = ops[j]
		}
	}
	// line 25: stop waiting for the sender and for every known rejector.
	if fromPos >= 0 {
		ref.waiting[r][fromPos] = false
	}
	for j, op := range ops {
		if op.Kind == Reject {
			ref.waiting[r][j] = false
		}
	}
}

// mergeBorders are the border sizes the merge is checked at: the smallest,
// both sides of a word boundary, two and three words, and tails of 1, 2,
// 32 and 63 bits.
var mergeBorders = []int{1, 2, 63, 64, 65, 96, 130}

// choices feeds a merge scenario its decisions: bytes of a script while
// they last (what the fuzzer mutates), then a seeded generator.
type choices struct {
	script []byte
	rng    *rand.Rand
}

func (c *choices) byte() int {
	if len(c.script) > 0 {
		b := c.script[0]
		c.script = c.script[1:]
		return int(b)
	}
	return c.rng.Intn(256)
}

// checkMergeScenario delivers a generated sequence of messages about one
// view with a border of `size` nodes to a border node — fresh ones in
// arbitrary round order, repeats of earlier ones, with sender-built masks
// and without, with the sender's slot and without, the node swapped for
// its Clone now and then (which must leave the node it came from alone) —
// and after every delivery compares the instance with the scan reference:
// every round's opinion row, waiting set and outgoing vector, the vector's
// masks, and the masks' own invariant (bit j of known ⇔ slot j ≠ ⊥;
// rejects ⊆ known, bit j ⇔ slot j is a reject; no bit at or beyond |B|).
// A twin node gets every message with its sender slot flipped (carried ⇔
// not carried) and must stay fingerprint-identical, and no delivery may
// write to the message, which its other recipients share.
func checkMergeScenario(t *testing.T, size, steps int, c *choices) {
	t.Helper()
	// A star: the view {hub} is bordered by its `size` leaves. The outsider
	// is a graph member that is not a participant.
	b := graph.NewBuilder()
	for j := 0; j < size; j++ {
		b.AddEdge("hub", graph.NodeID(fmt.Sprintf("n%03d", j)))
	}
	b.AddEdge("n000", "outsider")
	g := b.Build()
	view := region.New(g, []graph.NodeID{"hub"})
	border := view.Border()
	if len(border) != size {
		t.Fatalf("border of %d nodes, want %d", len(border), size)
	}
	n, twin := New(Config{ID: border[0], Graph: g}), New(Config{ID: border[0], Graph: g})
	n.Start()
	twin.Start()
	// Rounds 1..3 (or fewer): few enough that deliveries collide on a row.
	lastRound := min(size, 3)
	checked := min(size, lastRound+2) // and two rounds nothing touches
	ref := newScanInstance(size, checked)

	var sent []*Message
	var senders []graph.NodeID
	for step := 0; step < steps; step++ {
		var m *Message
		var from graph.NodeID
		if len(sent) > 0 && c.byte()%4 == 0 { // a duplicate, out of order
			i := c.byte() % len(sent)
			m, from = sent[i], senders[i]
		} else {
			ops := make(Vector, size)
			density := c.byte()
			for j := range ops {
				switch k := c.byte(); {
				case k >= density:
				case k%16 == 15:
					ops[j] = Opinion{Kind: OpinionKind(3)} // not a kind: known, not a reject
				case k%2 == 1:
					ops[j] = Opinion{Kind: Reject}
				default:
					ops[j] = Opinion{Kind: Accept, Value: proto.Value(fmt.Sprintf("v%d.%d", j, step))}
				}
			}
			m = &Message{Round: 1 + c.byte()%lastRound, View: view, Border: border, Opinions: ops}
			if c.byte()%2 == 0 { // as a sending node builds it
				m.masks = make([]uint64, 2*maskWords(size))
				fillMasks(m.masks, ops)
			}
			from = border[c.byte()%size]
			if c.byte()%8 == 0 {
				from = "outsider" // not a participant: nothing to stop waiting for
			}
			if c.byte()%2 == 0 { // as a sending node builds it
				m.sender = slotOf(border, from)
			}
			sent, senders = append(sent, m), append(senders, from)
		}
		var original *Node
		var untouched string
		if c.byte()%8 == 0 {
			original, untouched = n, n.Fingerprint()
			n = n.Clone()
		}
		before := *m
		n.deliver(from, m)
		flipped := *m
		if flipped.sender == 0 {
			flipped.sender = slotOf(border, from)
		} else {
			flipped.sender = 0
		}
		twin.deliver(from, &flipped)
		ref.merge(m.Round, borderPos(border, from), m.Opinions)
		if v := n.Violations(); len(v) != 0 {
			t.Fatalf("step %d: %v", step, v)
		}
		if m.sender != before.sender || (m.masks == nil) != (before.masks == nil) {
			t.Fatalf("step %d: the delivery wrote to the message", step)
		}
		if got, want := twin.Fingerprint(), n.Fingerprint(); got != want {
			t.Fatalf("step %d: with the sender slot flipped (%d → %d) the node reads\n%s\nnot\n%s",
				step, m.sender, flipped.sender, got, want)
		}
		if original != nil && original.Fingerprint() != untouched {
			t.Fatalf("step %d: a delivery to the clone reached the node it was cloned from", step)
		}

		inst := instanceOf(n, view)
		if inst == nil {
			t.Fatalf("step %d: no instance", step)
		}
		for r := 1; r <= checked; r++ {
			want := ref.rows[r]
			if row := inst.peek(r); row == nil {
				if Vector(want).Known() != 0 {
					t.Fatalf("step %d round %d: row unallocated, reference %s", step, r, Vector(want))
				}
			} else if !slices.Equal(row, want) {
				t.Fatalf("step %d round %d: row %s, reference %s", step, r, Vector(row), Vector(want))
			}
			for j := range want {
				if got := inst.waitingFor(r, j); got != ref.waiting[r][j] {
					t.Fatalf("step %d round %d: waiting for %s = %v, reference %v", step, r, border[j], got, ref.waiting[r][j])
				}
			}
			if waiting := inst.waiting(r); waiting != nil {
				for j := size; j < 64*inst.words; j++ {
					if waiting[j>>6]>>(j&63)&1 == 1 {
						t.Fatalf("step %d round %d: waiting for position %d of a border of %d", step, r, j, size)
					}
				}
			}
			wantMasks := make([]uint64, 2*inst.words)
			fillMasks(wantMasks, want)
			if out := inst.vector(r); !slices.Equal(out, Vector(want)) {
				t.Fatalf("step %d round %d: outgoing vector %s, reference %s", step, r, out, Vector(want))
			}
			outMasks := make([]uint64, 2*inst.words)
			inst.vectorMasks(outMasks, r)
			if !slices.Equal(outMasks, wantMasks) {
				t.Fatalf("step %d round %d: outgoing masks %x, those of the reference vector %x", step, r, outMasks, wantMasks)
			}
			known, rejects := wantMasks[:inst.words], wantMasks[inst.words:]
			for j := 0; j < 64*inst.words; j++ {
				k, rej := known[j>>6]>>(j&63)&1 == 1, rejects[j>>6]>>(j&63)&1 == 1
				inRange := j < size
				if k != (inRange && want[j].Kind != Unknown) || rej != (inRange && want[j].Kind == Reject) || rej && !k {
					t.Fatalf("step %d round %d slot %d: known=%v rejects=%v for %v", step, r, j, k, rej, want[min(j, size-1)])
				}
			}
		}
	}
}

// slotOf returns Message.sender for a message from `from` about a view
// with this border.
func slotOf(border []graph.NodeID, from graph.NodeID) int32 {
	return int32(borderPos(border, from) + 1)
}

// TestMaskMergeMatchesScanMerge runs seeded scenarios at every size of
// mergeBorders.
func TestMaskMergeMatchesScanMerge(t *testing.T) {
	for _, size := range mergeBorders {
		for seed := int64(1); seed <= 12; seed++ {
			checkMergeScenario(t, size, 40, &choices{rng: rand.New(rand.NewSource(seed*1000 + int64(size)))})
		}
	}
}

// FuzzMergeMasks is the same check with the scenario's decisions read from
// the fuzzer's script first.
func FuzzMergeMasks(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{})
	f.Add(uint8(3), int64(2), []byte{1, 255, 0, 1, 2, 3, 0, 0, 0, 7})
	f.Add(uint8(6), int64(3), []byte{0, 0, 200, 15, 31, 1, 1, 1})
	f.Fuzz(func(t *testing.T, size uint8, seed int64, script []byte) {
		checkMergeScenario(t, mergeBorders[int(size)%len(mergeBorders)], 12,
			&choices{script: script, rng: rand.New(rand.NewSource(seed))})
	})
}
