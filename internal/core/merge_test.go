package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// scanInstance is the reference for instance.merge: the opinion rows and
// waiting sets of one view as plain eager matrices of per-slot opinions,
// merged the way the package did before opinions became bitmasks and a
// value column — two loops over all |B| slots of every message.
type scanInstance struct {
	rows    [][]opinion // rows[r][j], r in 1..lastRound
	waiting [][]bool
}

func newScanInstance(border, lastRound int) *scanInstance {
	ref := &scanInstance{rows: make([][]opinion, lastRound+1), waiting: make([][]bool, lastRound+1)}
	for r := 1; r <= lastRound; r++ {
		ref.rows[r] = make([]opinion, border)
		ref.waiting[r] = make([]bool, border)
		for j := range ref.waiting[r] {
			ref.waiting[r][j] = true // line 22: waiting[V][r] ← B
		}
	}
	return ref
}

func (ref *scanInstance) merge(r, fromPos int, ops []opinion) {
	row := ref.rows[r]
	for j := range row { // lines 23–24: fill ⊥ slots only
		if row[j].kind == unknown {
			row[j] = ops[j]
		}
	}
	// line 25: stop waiting for the sender and for every known rejector.
	if fromPos >= 0 {
		ref.waiting[r][fromPos] = false
	}
	for j, op := range ops {
		if op.kind == rejected {
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
// arbitrary round order, repeats of earlier ones, some from a node that is
// not a participant, the node swapped for its Clone now and then (which
// must leave the node it came from alone) — and after every delivery
// compares the instance with the scan reference: every round's opinions
// and waiting set, the outgoing masks, the masks' own invariant (rejects ⊆
// known, no bit at or beyond |B|), and the value column (a participant is
// valued iff some round holds its accept). Participant j accepts with
// "v<j>" in every message, as a participant of a run proposes one value.
// No delivery may write to the message, which its other recipients share.
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
	n := New(Config{ID: border[0], Graph: g})
	n.Start()
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
			ops := make([]opinion, size)
			density := c.byte()
			for j := range ops {
				switch k := c.byte(); {
				case k >= density:
				case k%2 == 1:
					ops[j] = reject
				default:
					ops[j] = accept(proto.Value(fmt.Sprintf("v%d", j)))
				}
			}
			from = border[c.byte()%size]
			if c.byte()%8 == 0 {
				from = "outsider" // not a participant: nothing to stop waiting for
			}
			m = messageOf(1+c.byte()%lastRound, view, from, ops)
			sent, senders = append(sent, m), append(senders, from)
		}
		var original *Node
		var untouched string
		if c.byte()%8 == 0 {
			original, untouched = n, n.Fingerprint()
			n = n.Clone()
		}
		before, beforeMasks := m.String(), slices.Clone(m.masks)
		n.activate().deliver(m)
		ref.merge(m.Round, borderPos(border, from), opinionsOf(size, m.masks, m.values))
		if v := n.Violations(); len(v) != 0 {
			t.Fatalf("step %d: %v", step, v)
		}
		if m.String() != before || !slices.Equal(m.masks, beforeMasks) {
			t.Fatalf("step %d: the delivery wrote to the message", step)
		}
		if original != nil && original.Fingerprint() != untouched {
			t.Fatalf("step %d: a delivery to the clone reached the node it was cloned from", step)
		}

		inst := instanceOf(n, view)
		if inst == nil {
			t.Fatalf("step %d: no instance", step)
		}
		valued := make([]bool, size)
		for r := 1; r <= checked; r++ {
			want := ref.rows[r]
			out := make([]uint64, 2*inst.words)
			inst.opinions(out, r)
			if got := opinionsOf(size, out, inst.values); !slices.Equal(got, want) {
				t.Fatalf("step %d round %d: opinions %v, reference %v", step, r, got, want)
			}
			if inst.round(r) == nil && known(want) != 0 {
				t.Fatalf("step %d round %d: round unallocated, reference %v", step, r, want)
			}
			for j := range want {
				if got := inst.waitingFor(r, j); got != ref.waiting[r][j] {
					t.Fatalf("step %d round %d: waiting for %s = %v, reference %v", step, r, border[j], got, ref.waiting[r][j])
				}
				valued[j] = valued[j] || want[j].kind == accepted
			}
			if waiting := inst.waiting(r); waiting != nil {
				for j := size; j < 64*inst.words; j++ {
					if waiting[j>>6]>>(j&63)&1 == 1 {
						t.Fatalf("step %d round %d: waiting for position %d of a border of %d", step, r, j, size)
					}
				}
			}
			knownBits, rejectBits := out[:inst.words], out[inst.words:]
			for j := 0; j < 64*inst.words; j++ {
				k, rej := knownBits[j>>6]>>(j&63)&1 == 1, rejectBits[j>>6]>>(j&63)&1 == 1
				if j >= size && k || rej && !k {
					t.Fatalf("step %d round %d slot %d: known=%v rejects=%v", step, r, j, k, rej)
				}
			}
		}
		for j := range valued {
			got := inst.valued != nil && inst.valued[j>>6]>>(j&63)&1 == 1
			if got != valued[j] || got && inst.values[j] != proto.Value(fmt.Sprintf("v%d", j)) {
				t.Fatalf("step %d: column slot %d valued=%v (%q), reference valued=%v", step, j, got, inst.values[min(j, len(inst.values)-1)], valued[j])
			}
		}
	}
}

// TestConflictingAcceptKeepsFirstValue: a participant proposes a view once,
// with one value, so an accept that names it with another value is an
// invariant breach. The node records it and keeps the value it holds. The
// border of {b} is [a c e], and each case puts the conflicting participant
// at another slot: the first, a middle and the last.
func TestConflictingAcceptKeepsFirstValue(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("c", "b").AddEdge("e", "b").Build()
	view := region.New(g, []graph.NodeID{"b"})
	for _, tc := range []struct {
		name                   string
		node, conflict, sender graph.NodeID
		violation, want        string
	}{
		{"first slot", "e", "a", "c",
			`view {b}: a accepts with "vx", already known to accept with "va"`,
			"e#|p=false,|r=0|vp=|mx=|cd=|lc=|mon=b|rej=|" +
				"rcv={b;B=[a c e];L=3;r1=[accept(va) ⊥ ⊥];w1=c,e;r2=[accept(va) accept(vc) ⊥];w2=a,e;r3=[⊥ ⊥ ⊥];w3=a,c,e}|self="},
		{"middle slot", "a", "c", "e",
			`view {b}: c accepts with "vx", already known to accept with "vc"`,
			"a#|p=false,|r=0|vp=|mx=|cd=|lc=|mon=b|rej=|" +
				"rcv={b;B=[a c e];L=3;r1=[⊥ accept(vc) ⊥];w1=a,e;r2=[⊥ accept(vc) accept(ve)];w2=a,c;r3=[⊥ ⊥ ⊥];w3=a,c,e}|self="},
		{"last slot", "a", "e", "c",
			`view {b}: e accepts with "vx", already known to accept with "ve"`,
			"a#|p=false,|r=0|vp=|mx=|cd=|lc=|mon=b|rej=|" +
				"rcv={b;B=[a c e];L=3;r1=[⊥ ⊥ accept(ve)];w1=a,c;r2=[⊥ accept(vc) accept(ve)];w2=a,e;r3=[⊥ ⊥ ⊥];w3=a,c,e}|self="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := mkNode(t, g, tc.node, proto.Value("v"+tc.node))
			n.Start()
			first := proto.Value("v" + tc.conflict)
			n.OnMessage(tc.conflict, message(1, view, tc.conflict, ops{tc.conflict: accept(first)}))
			if v := n.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
			n.OnMessage(tc.sender, message(2, view, tc.sender,
				ops{tc.conflict: accept("vx"), tc.sender: accept(proto.Value("v" + tc.sender))}))
			if v := n.Violations(); len(v) != 1 || v[0] != tc.violation {
				t.Fatalf("violations %q, want exactly %q", v, tc.violation)
			}
			if got := n.Fingerprint(); got != tc.want {
				t.Errorf("fingerprint\n got %q\nwant %q", got, tc.want)
			}
		})
	}
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

// TestSentMessagesNeverChange: a round message shares its sender's value
// column, which later deliveries to the sender keep filling in. Every
// message a node sent must therefore render byte-identically after each
// later delivery to that node. A 6×6 grid loses a 2×2 block, then one of
// the block's border nodes: the first view is rejected in favour of the
// grown one, so nodes send first messages, rejects and round messages
// about two views. Channels are FIFO, but the next channel to deliver is
// chosen at random. Node q proposes "q/<view key>", so every accept a
// message carries can be checked against its participant, and Pick
// reorders its argument, as a user's may.
func TestSentMessagesNeverChange(t *testing.T) {
	g := graph.Grid(6, 6)
	block := graph.GridBlock(2, 2, 2)
	late := graph.GridID(1, 2) // borders the block
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]*Node, g.Len())
		crashed := graph.NewBitset(g.Len())
		type delivery struct {
			to    int32
			crash graph.NodeID // a crash notification, or
			from  graph.NodeID // a message
			m     *Message
		}
		var queue []delivery // crash notifications, any order
		channels := map[[2]int32][]delivery{}
		var open [][2]int32
		sent := make([][]*Message, g.Len())
		rendered := make([][]string, g.Len())
		rounds := 0
		apply := func(i int32, eff proto.Effects) {
			for _, q := range eff.Monitor {
				if crashed.Has(q) {
					queue = append(queue, delivery{to: i, crash: g.ID(q)})
				}
			}
			for _, s := range eff.Sends {
				m := s.Payload.(*Message)
				for j, op := range opinionsOf(m.View.BorderLen(), m.masks, m.values) {
					if want := proposal(m.View.BorderID(j), m.View); op.kind == accepted && op.value != want {
						t.Fatalf("seed %d: %s sent %s: slot %d accepts with %q, not %q", seed, g.ID(i), m, j, op.value, want)
					}
				}
				sent[i] = append(sent[i], m)
				rendered[i] = append(rendered[i], m.String())
				if m.Round > 1 && m.values != nil {
					rounds++
				}
				for _, to := range s.To {
					if to == i || crashed.Has(to) {
						continue
					}
					k := [2]int32{i, to}
					if len(channels[k]) == 0 {
						open = append(open, k)
					}
					channels[k] = append(channels[k], delivery{to: to, from: g.ID(i), m: m})
				}
			}
		}
		crash := func(ids ...graph.NodeID) {
			for _, id := range ids {
				crashed.Set(g.Index(id))
			}
			for i, n := range nodes {
				if crashed.Has(int32(i)) {
					continue
				}
				for _, id := range ids {
					if n.monitors(g.Index(id)) {
						queue = append(queue, delivery{to: int32(i), crash: id})
					}
				}
			}
		}
		for i := range nodes {
			id := g.ID(int32(i))
			nodes[i] = New(Config{ID: id, Graph: g,
				Propose: func(v region.Region) proto.Value { return proposal(id, v) },
				Pick: func(values []proto.Value) proto.Value {
					// Border order is ascending, so this reorders its argument.
					slices.SortFunc(values, func(a, b proto.Value) int { return strings.Compare(string(b), string(a)) })
					return values[len(values)-1]
				}})
			apply(int32(i), nodes[i].Start())
		}
		crash(block...)
		for steps := 0; len(queue) > 0 || len(open) > 0; steps++ {
			if steps == 40 {
				crash(late)
			}
			var d delivery
			if k := rng.Intn(len(queue) + len(open)); k < len(queue) {
				d = queue[k]
				queue = append(queue[:k], queue[k+1:]...)
			} else {
				k -= len(queue)
				key := open[k]
				d, channels[key] = channels[key][0], channels[key][1:]
				if len(channels[key]) == 0 {
					open = append(open[:k], open[k+1:]...)
				}
			}
			if crashed.Has(d.to) {
				continue
			}
			n := nodes[d.to]
			if d.m == nil {
				apply(d.to, n.OnCrash(d.crash))
			} else {
				apply(d.to, n.OnMessage(d.from, d.m))
			}
			for k, m := range sent[d.to] {
				if got := m.String(); got != rendered[d.to][k] {
					t.Fatalf("seed %d: %s's message %d changed under a later delivery\n got %s\nwant %s",
						seed, n.ID(), k, got, rendered[d.to][k])
				}
			}
		}
		decided := 0
		for i, n := range nodes {
			if v := n.Violations(); len(v) != 0 {
				t.Fatalf("seed %d: %s: %v", seed, n.ID(), v)
			}
			if !crashed.Has(int32(i)) && n.Decided() != nil {
				decided++
			}
		}
		if decided == 0 || rounds == 0 {
			t.Fatalf("seed %d: %d deciders, %d round messages with accepts: the run did not exercise the column", seed, decided, rounds)
		}
	}
}

// proposal is what node q proposes for view v in TestSentMessagesNeverChange.
func proposal(q graph.NodeID, v region.Region) proto.Value {
	return proto.Value(string(q) + "/" + v.Key())
}
