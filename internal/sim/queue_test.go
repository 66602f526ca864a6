package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// qop is one step of a queue script: a push, pop, next-time query or drain.
type qop struct {
	kind byte // 'p'ush, 'o' pop, 'h' nextTime, 'd'rain
	// push: the event lands dt ticks after the last popped time (the
	// open tick), from src; back draws the source's sseq from below its
	// earlier pushes, out of push order.
	dt   int64
	src  int32
	back bool
}

// checkQueueScript runs ops on an eventQueue and on a reference that
// keeps pending events unsorted and pops the least key. Every pop and
// drain must agree event for event, and every nextTime with the least
// key's time. Pushes are never below the last popped time, the queue's
// contract.
func checkQueueScript(t testing.TB, nodes int32, ops []qop) {
	t.Helper()
	q := eventQueue{nodes: nodes}
	var ref []event
	floor := int64(0)
	up, down := make([]int64, nodes+1), make([]int64, nodes+1)
	pushes := 0
	least := func() int {
		best := 0
		for i := range ref {
			if ref[i].key().less(ref[best].key()) {
				best = i
			}
		}
		return best
	}
	for step, op := range ops {
		switch {
		case op.kind == 'p':
			s := op.src + 1
			ev := event{time: floor + op.dt, src: op.src, node: int32(pushes)}
			if op.back {
				down[s]--
				ev.sseq = down[s]
			} else {
				ev.sseq = up[s]
				up[s]++
			}
			pushes++
			q.push(ev)
			ref = append(ref, ev)
		case len(ref) == 0:
			continue
		case op.kind == 'o':
			i := least()
			want := ref[i]
			ref = slices.Delete(ref, i, i+1)
			if got := q.pop(); got != want {
				t.Fatalf("step %d: pop = %+v, reference %+v", step, got, want)
			}
			floor = want.time
		case op.kind == 'h':
			if got, want := q.nextTime(), ref[least()].time; got != want {
				t.Fatalf("step %d: nextTime = %d, reference %d", step, got, want)
			}
		case op.kind == 'd':
			want := slices.Clone(ref)
			slices.SortFunc(want, func(a, b event) int { return a.key().compare(b.key()) })
			got := q.drain()
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: drain of %d events diverged from the sorted reference", step, len(want))
			}
			ref = ref[:0]
			floor = want[len(want)-1].time
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, reference %d", step, q.len(), len(ref))
		}
	}
}

// randomScript draws n queue steps. Times span well past the ring: most
// pushes land in the next few ticks (same-tick pushes into the open tick
// included), some at the ring's edge and some far beyond it. Bursts
// without pops fill single ticks past the counting-sort threshold, and
// src covers -1 (config-born events) through nodes-1.
func randomScript(rng *rand.Rand, nodes int32, n int) []qop {
	ops := make([]qop, 0, n)
	for len(ops) < n {
		if rng.Intn(40) == 0 {
			// A burst into one tick, sometimes with one source out of order.
			dt := int64(rng.Intn(3))
			for k := 0; k < 40+rng.Intn(80); k++ {
				ops = append(ops, qop{kind: 'p', dt: dt, src: int32(rng.Intn(int(nodes)+1)) - 1,
					back: rng.Intn(60) == 0})
			}
			continue
		}
		op := qop{kind: 'p', src: int32(rng.Intn(int(nodes)+1)) - 1, back: rng.Intn(100) == 0}
		switch r := rng.Intn(20); {
		case r < 6:
			op.kind = 'o'
		case r < 7:
			op.kind = 'h'
		case r == 7 && rng.Intn(10) == 0:
			op.kind = 'd'
		case r < 12:
			op.dt = int64(rng.Intn(3))
		case r < 16:
			op.dt = int64(1 + rng.Intn(11))
		case r < 18:
			op.dt = int64(ringTicks - 2 + rng.Intn(4))
		default:
			op.dt = int64(rng.Intn(20 * ringTicks))
		}
		ops = append(ops, op)
	}
	return ops
}

// TestQueuePopsSortedOrder: under random push/pop/nextTime/drain interleavings
// the queue emits events in strict (time, src, sseq) order, the total
// order every kernel invariant rests on. It covers the zero-value queue
// (comparison sort only) and node counts that make large ticks take the
// counting sort and its fallback.
func TestQueuePopsSortedOrder(t *testing.T) {
	for _, nodes := range []int32{0, 9, 200} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			checkQueueScript(t, nodes, randomScript(rng, nodes, 3000))
		}
	}
}

// TestQueueDrainIsSorted: pushing N random events spanning many ring
// windows and draining yields exactly the key-sorted sequence.
func TestQueueDrainIsSorted(t *testing.T) {
	for _, nodes := range []int32{0, 9} {
		rng := rand.New(rand.NewSource(42))
		var q eventQueue
		q.nodes = nodes
		var all []event
		for i := 0; i < 5000; i++ {
			ev := event{time: int64(rng.Intn(10 * ringTicks)), src: int32(rng.Intn(int(nodes)+2)) - 1, sseq: int64(i)}
			if i%97 == 0 {
				ev.sseq = -ev.sseq // out of its source's push order
			}
			q.push(ev)
			all = append(all, ev)
		}
		slices.SortFunc(all, func(a, b event) int { return a.key().compare(b.key()) })
		if got := q.drain(); !slices.Equal(got, all) {
			t.Fatalf("nodes=%d: drain diverged from the sorted sequence", nodes)
		}
		if q.len() != 0 {
			t.Fatalf("nodes=%d: queue not empty after drain: %d left", nodes, q.len())
		}
	}
}

// TestQueueCountingSort: a tick large enough for the counting sort comes
// out in key order when every source pushed in sseq order, and the sort
// reports the out-of-order run (for the comparison fallback) otherwise.
func TestQueueCountingSort(t *testing.T) {
	for _, outOfOrder := range []bool{false, true} {
		q := eventQueue{nodes: 4}
		seq := make([]int64, 5)
		for i := 0; i < countMin*2; i++ {
			src := int32(i%5) - 1
			q.push(event{time: 3, src: src, sseq: seq[src+1]})
			seq[src+1]++
		}
		if outOfOrder {
			q.push(event{time: 3, src: 2, sseq: -1})
		}
		q.base, q.open = 3, true
		b := &q.ring[3]
		q.order = q.order[:0]
		q.counts = make([]int32, q.nodes+1)
		for k, id := int32(0), b.head; k < b.n; k++ {
			q.order = append(q.order, id)
			q.counts[q.slot(id).src+1]++
			id = *q.link(id)
		}
		slices.Reverse(q.order)
		if ok := q.countingSort(); ok == outOfOrder {
			t.Fatalf("outOfOrder=%v: countingSort reported %v", outOfOrder, ok)
		}
		if outOfOrder {
			continue
		}
		for k := 1; k < len(q.order); k++ {
			if !q.slot(q.order[k-1]).key().less(q.slot(q.order[k]).key()) {
				t.Fatalf("counting sort out of order at %d", k)
			}
		}
		for _, c := range q.counts {
			if c != 0 {
				t.Fatal("histogram not cleared after the sort")
			}
		}
	}
}

// TestQueuePushBelowOpenTickPanics: once a tick is open, an earlier push
// would have to pop out of order; the queue refuses it loudly.
func TestQueuePushBelowOpenTickPanics(t *testing.T) {
	var q eventQueue
	q.push(event{time: 5})
	q.push(event{time: 9, sseq: 1})
	q.pop()
	q.push(event{time: 5, sseq: 2}) // same tick as the open one: allowed
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "below the open tick") {
			t.Fatalf("push below the open tick: recovered %v", r)
		}
	}()
	q.push(event{time: 4, sseq: 3})
}

// TestEventSize pins the queue's unit of storage: every push and pop
// copies one event, so growing it costs every kernel event.
func TestEventSize(t *testing.T) {
	if s := unsafe.Sizeof(event{}); s > 72 {
		t.Fatalf("event is %d bytes, want at most 72", s)
	}
}

// TestQueueSteadyStateAllocs: after warm-up, a pop-and-push cycle at
// constant depth allocates nothing. Popped slots are reused, and the
// ring and order arrays keep their capacity.
func TestQueueSteadyStateAllocs(t *testing.T) {
	q := eventQueue{nodes: 64}
	rng := rand.New(rand.NewSource(1))
	seq := int64(0)
	cycle := func() {
		ev := q.pop()
		for k := 0; k < 2; k++ {
			ev.time += int64(rng.Intn(10))
			ev.src = int32(rng.Intn(65)) - 1
			ev.sseq = seq
			seq++
			q.push(ev)
			if k == 0 {
				q.pop()
			}
		}
	}
	for i := 0; i < 2000; i++ {
		q.push(event{time: int64(rng.Intn(10)), src: int32(rng.Intn(65)) - 1, sseq: seq})
		seq++
	}
	for i := 0; i < 20000; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(5000, cycle); a != 0 {
		t.Fatalf("steady-state pop/push cycle allocates %.2f times", a)
	}
}

// FuzzEventQueue decodes op scripts from bytes and checks them against the
// sorted reference. The first byte picks the node count; every following
// pair is one op: pushes at the open tick, nearby, at the ring's edge and
// far beyond it, pops, nextTime queries and drains.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0x10, 3, 0x20, 4, 0xF0, 0, 0xF1, 0, 0xF2, 0})
	burst := []byte{9}
	for i := 0; i < 80; i++ {
		burst = append(burst, 0x00, byte(i*7))
	}
	burst = append(burst, 0x40, 5, 0xF0, 0, 0x00, 3, 0xF0, 0, 0xF8, 0)
	f.Add(burst)
	far := []byte{200}
	for i := 0; i < 30; i++ {
		far = append(far, 0x80, byte(i*37), 0x60, byte(i), 0xF0, 0, 0xF4, 0)
	}
	f.Add(far)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		nodes := int32(data[0])
		var ops []qop
		for i := 1; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			op := qop{kind: 'p', src: int32(int(b)%(int(nodes)+1)) - 1, back: a&0x08 != 0}
			switch a >> 4 {
			case 0, 1, 2:
				op.dt = int64(a>>4) % 2 // the open tick, or the next
			case 3, 4, 5:
				op.dt = int64(a & 0x07)
			case 6, 7:
				op.dt = ringTicks - 4 + int64(a&0x07)
			case 8, 9, 10:
				op.dt = int64(b) * 4
			case 11, 12, 13, 14:
				op.kind = 'o'
			case 15:
				op.kind = "hhhhhhhhoooooood"[a&0x0F]
			}
			ops = append(ops, op)
		}
		checkQueueScript(t, nodes, ops)
	})
}
