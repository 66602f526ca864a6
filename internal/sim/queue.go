package sim

import (
	"fmt"
	"slices"
)

// eventQueue is the kernel's event queue: a calendar queue (Brown,
// "Calendar queues", CACM 1988) with one bucket per virtual tick. It pops
// events in the strict total order of their key (time, src, sseq).
// Because every event carries a unique key, the pop sequence is exactly
// the sorted event order, independent of the queue's internals. This is
// what makes runs reproducible bit for bit, and what made each change of
// queue a pure constant-factor change: the golden-hash test pins the
// traces. The key is also shard-stable: src/sseq are assigned by the
// scheduling node, not by a global counter, so the sorted order is
// identical no matter how events are distributed over per-shard
// sub-queues.
//
// Why a calendar: every pending event lies within a few ticks of the
// open one. Message and detection latencies are small, FIFO floors never
// exceed the latest delivery already drawn on a channel, and
// subscriptions land one lookahead (the smaller band's Min) later. So a
// ring of ringTicks buckets covers [base, base+ringTicks), where base is
// the open tick. Events further out (scheduled crashes and injections,
// long link-fault delays) wait in a small 4-ary overflow min-heap. They
// move into the ring when the window reaches them.
//
// Opening a tick orders its bucket once. A bucket lists its events in
// push order, and every source pushes its events in sseq order. So a
// stable counting sort on src yields (src, sseq) order without a single
// key comparison. The counting sort checks each source's run and falls
// back to a comparison sort if a run is out of order. That happens only
// when events are pushed out of their source's order. Buckets that are
// small next to the node count skip the counting sort: its prefix pass
// costs one step per source.
//
// A push into the open tick is inserted in order among its unpopped
// events; zero trigger delays produce such pushes (latencies are at least
// one tick). A push below the open tick panics. Config times and trigger
// delays are validated ≥ 0, and the lanes refuse an event before their
// current time and, sharded, one inside their window, so no kernel path
// does this. A queue that accepted the push would have to pop out of order.
//
// Events are stored by value in one pool of fixed-size chunks owned by
// the queue. A bucket is a list threaded through the pool's slots, and a
// popped slot goes back on a free list. Retained memory therefore
// follows the live events, not the busiest tick, and steady-state
// scheduling allocates nothing. The zero value is an empty queue that
// orders every tick by comparison; lanes set nodes to enable the
// counting sort.
type eventQueue struct {
	// nodes bounds the sources: src ∈ [-1, nodes).
	nodes int32
	n     int // pending events

	// The ring holds ringN events, each with base ≤ time < base+ringTicks,
	// in bucket time&ringMask. base only moves when pop opens a tick.
	base  int64
	ring  []bucket
	ringN int
	// open is whether tick base has been opened: order[pos:] are its
	// unpopped events, in key order, and its ring bucket stays empty.
	open  bool
	order []int32
	pos   int

	overflow []int32 // 4-ary min-heap of the slots at base+ringTicks and beyond

	chunks  []*chunk
	free    int32   // free-slot list through chunk.next, ended by -1
	scratch []int32 // counting-sort output, swapped with order
	counts  []int32 // counting-sort histogram by src+1; all zero between sorts
}

const (
	ringTicks = 64 // a power of two
	ringMask  = ringTicks - 1
	chunkBits = 4
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
	// A tick is ordered by counting sort when it holds at least countMin
	// events and the queue has at most countRatio sources per event.
	// Timed per tick against the comparison sort, the counting sort wins
	// from 16 events at up to 32 sources per event, and loses at 8 events
	// or at 64 sources per 16-event tick.
	countMin   = 16
	countRatio = 32
)

// bucket is one tick of the ring: n events in a list through the pool's
// next links, newest first.
type bucket struct {
	head, n int32
}

// chunk is a fixed-size block of pool slots. next links a slot into its
// bucket's list or, once the slot is free, into the free list.
type chunk struct {
	ev   [chunkLen]event
	next [chunkLen]int32
}

func (q *eventQueue) len() int { return q.n }

func (q *eventQueue) slot(id int32) *event { return &q.chunks[id>>chunkBits].ev[id&chunkMask] }

func (q *eventQueue) link(id int32) *int32 { return &q.chunks[id>>chunkBits].next[id&chunkMask] }

// nextTime returns the tick of the earliest pending event. Callers must
// check len() > 0 first. It opens no tick: the sharded driver asks every
// lane, then routes events that may land below a lane's next tick.
func (q *eventQueue) nextTime() int64 {
	if q.open && q.pos < len(q.order) {
		return q.base
	}
	if q.ringN == 0 {
		return q.slot(q.overflow[0]).time
	}
	t := q.base
	for q.ring[t&ringMask].n == 0 {
		t++
	}
	return t
}

func (q *eventQueue) push(ev event) {
	if ev.time < q.base {
		panic(fmt.Sprintf("sim: event at t=%d pushed below the open tick t=%d", ev.time, q.base))
	}
	if q.ring == nil {
		q.ring = make([]bucket, ringTicks)
		q.free = -1
	}
	id := q.alloc()
	*q.slot(id) = ev
	q.n++
	switch {
	case ev.time == q.base && q.open:
		i, _ := slices.BinarySearchFunc(q.order[q.pos:], ev.key(), func(id int32, k eventKey) int {
			return q.slot(id).key().compare(k)
		})
		q.order = slices.Insert(q.order, q.pos+i, id)
	case ev.time < q.base+ringTicks:
		q.toRing(id)
	default:
		q.overflowPush(id)
	}
}

func (q *eventQueue) pop() event {
	if !q.open || q.pos == len(q.order) {
		q.advance()
	}
	id := q.order[q.pos]
	q.pos++
	p := q.slot(id)
	ev := *p
	*p = event{} // release the payload reference
	*q.link(id) = q.free
	q.free = id
	q.n--
	return ev
}

// reset empties the queue for a run over the given number of sources and
// keeps its memory: the chunks, the ring and the sort buffers. A queue a
// run left non-empty (it stopped early) has its slots cleared. The free
// list is rebuilt in slot order, the order a new queue hands slots out in;
// which slot holds an event never decides when it pops, since the key
// does.
func (q *eventQueue) reset(nodes int32) {
	if q.n > 0 {
		for _, c := range q.chunks {
			c.ev = [chunkLen]event{}
		}
		clear(q.ring)
	}
	q.free = -1
	for k := len(q.chunks) - 1; k >= 0; k-- {
		q.linkChunk(k)
	}
	if cap(q.counts) > int(nodes) {
		q.counts = q.counts[:nodes+1]
	} else {
		q.counts = nil
	}
	*q = eventQueue{
		nodes:    nodes,
		ring:     q.ring,
		order:    q.order[:0],
		overflow: q.overflow[:0],
		chunks:   q.chunks,
		free:     q.free,
		scratch:  q.scratch[:0],
		counts:   q.counts,
	}
}

// drain pops every pending event and returns them in order.
func (q *eventQueue) drain() []event {
	out := make([]event, 0, q.n)
	for q.n > 0 {
		out = append(out, q.pop())
	}
	return out
}

// alloc takes a slot from the free list, adding a chunk when it is empty.
func (q *eventQueue) alloc() int32 {
	if q.free < 0 {
		q.chunks = append(q.chunks, new(chunk))
		q.linkChunk(len(q.chunks) - 1)
	}
	id := q.free
	q.free = *q.link(id)
	return id
}

// linkChunk puts the slots of chunk k in front of the free list, lowest
// first.
func (q *eventQueue) linkChunk(k int) {
	c, first := q.chunks[k], int32(k)<<chunkBits
	for s := chunkLen - 1; s >= 0; s-- {
		c.next[s] = q.free
		q.free = first + int32(s)
	}
}

// toRing links slot id into its tick's bucket.
func (q *eventQueue) toRing(id int32) {
	ev := q.slot(id)
	b := &q.ring[ev.time&ringMask]
	*q.link(id) = b.head
	b.head = id
	b.n++
	q.ringN++
}

// advance opens the next tick: the earliest non-empty bucket, or the
// overflow's earliest tick when the ring is empty. Moving base first
// lets the overflow hand over every event the window now covers; those
// all lie beyond the ring's events, so no bucket mixes two ticks.
func (q *eventQueue) advance() {
	if q.ringN > 0 {
		for q.ring[q.base&ringMask].n == 0 {
			q.base++
		}
	} else {
		q.base = q.slot(q.overflow[0]).time
	}
	for len(q.overflow) > 0 && q.slot(q.overflow[0]).time < q.base+ringTicks {
		q.toRing(q.overflowPop())
	}
	b := &q.ring[q.base&ringMask]
	m := int(b.n)
	q.order = slices.Grow(q.order[:0], m)[:m]
	// The walk also fills the counting sort's histogram: the src load is
	// off the list's dependency chain, so it overlaps the next hop.
	counting := q.nodes > 0 && m >= countMin && int(q.nodes) <= countRatio*m
	if counting && q.counts == nil {
		q.counts = make([]int32, q.nodes+1)
	}
	for k, id := m-1, b.head; k >= 0; k-- {
		q.order[k] = id
		if counting {
			q.counts[q.slot(id).src+1]++
		}
		id = *q.link(id)
	}
	b.n = 0
	q.ringN -= m
	q.pos = 0
	q.open = true
	if m > 1 && !(counting && q.countingSort()) {
		slices.SortFunc(q.order, func(a, b int32) int { return q.slot(a).key().compare(q.slot(b).key()) })
	}
}

// countingSort orders the open tick, listed in push order in q.order with
// its sources counted in q.counts, by a stable counting sort on src. It
// reports whether every source's run came out in sseq order; if not,
// q.order is left grouped by source.
func (q *eventQueue) countingSort() bool {
	counts := q.counts
	sum := int32(0)
	for s, c := range counts {
		counts[s] = sum
		sum += c
	}
	out := slices.Grow(q.scratch[:0], len(q.order))[:len(q.order)]
	for _, id := range q.order {
		s := q.slot(id).src + 1
		out[counts[s]] = id
		counts[s]++
	}
	clear(counts)
	q.scratch, q.order = q.order, out
	for k := 1; k < len(out); k++ {
		a, b := q.slot(out[k-1]), q.slot(out[k])
		if a.src == b.src && a.sseq > b.sseq {
			return false
		}
	}
	return true
}

// overflowPush and overflowPop keep q.overflow a 4-ary min-heap of slots
// by key: a branching factor of 4 halves the depth of a binary heap, so a
// push does half the swaps.
func (q *eventQueue) overflowPush(id int32) {
	h := append(q.overflow, id)
	k := q.slot(id).key()
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !k.less(q.slot(h[parent]).key()) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = id
	q.overflow = h
}

func (q *eventQueue) overflowPop() int32 {
	h := q.overflow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	q.overflow = h
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, last); c++ {
			if q.slot(h[c]).key().less(q.slot(h[least]).key()) {
				least = c
			}
		}
		if !q.slot(h[least]).key().less(q.slot(h[i]).key()) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
