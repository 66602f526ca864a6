package sim

// Conservative parallel driver (classic conservative PDES, à la
// Chandy–Misra): nodes are partitioned over shards, each shard owns a
// sub-queue of the events addressed to its nodes, and execution proceeds
// in global time windows [W, W+L) where W is the earliest pending event
// anywhere and L the lookahead — the smaller Min of the two latency bands,
// which Config validation keeps ≥ 1. Within a window every shard may
// process its events independently: any event one shard's processing
// could schedule on another lands at ≥ now + L ≥ W + L, strictly after
// the window, so nothing a peer does during the window can affect it. At
// the barrier the shards' buffered trace events are merged by the
// generating event's total-order key, cross-shard events are routed, and
// the next window opens.
//
// Because the event key (time, src, sseq) is assigned at the scheduling
// site and latency draws are keyed pure functions (kernel invariants 1–2),
// the merged trace is byte-identical to the sequential kernel's at any
// shard count and any GOMAXPROCS — the golden-hash test is the oracle.

import (
	"context"
	"fmt"
	"sync"

	"cliffedge/internal/dsu"
)

// maxAutoShards caps the automatic partition: beyond ~CPU-count shards
// the per-window barrier costs more than the extra lanes recover.
const maxAutoShards = 16

// plan decides the execution mode: it returns the node→shard owner map
// and the shard count, or (nil, 1) for the sequential kernel. Triggers
// force the sequential kernel: trigger predicates inspect the globally
// ordered trace, which only exists after the merge.
func (r *Runner) plan() ([]int32, int) {
	n := r.cfg.Shards
	if n == 0 || n == 1 {
		return nil, 1
	}
	if len(r.cfg.Triggers) > 0 {
		return nil, 1
	}
	if n == AutoShards {
		return r.autoPartition()
	}
	if n > r.g.Len() {
		n = r.g.Len()
	}
	if n <= 1 {
		return nil, 1
	}
	owner := make([]int32, r.g.Len())
	for i := range owner {
		owner[i] = int32(i % n)
	}
	return owner, n
}

// autoPartition exploits the paper's locality property: crashed regions
// whose closures are disjoint generate causally independent event
// streams, so each domain group gets its own shard. Adjacent crashed
// nodes are united into domains; an alive border node is united with
// every crashed neighbour, which both merges domains sharing a border
// node (the faulty-cluster closure) and assigns the border node to the
// group whose work it carries. Nodes outside every closure mostly stay
// idle, so they are striped round-robin. Fewer than two groups (or none)
// falls back to the sequential kernel — correctness never depends on the
// partition, only the speedup does.
func (r *Runner) autoPartition() ([]int32, int) {
	n := r.g.Len()
	inCrash := make([]bool, n)
	for _, c := range r.cfg.Crashes {
		inCrash[r.g.Index(c.Node)] = true
	}
	d := dsu.New(n)
	for i := 0; i < n; i++ {
		if !inCrash[i] {
			continue
		}
		for _, nb := range r.g.NeighborIndices(int32(i)) {
			if inCrash[nb] {
				d.Union(int32(i), nb)
			}
		}
	}
	closure := make([]bool, n)
	copy(closure, inCrash)
	for i := 0; i < n; i++ {
		if inCrash[i] {
			continue
		}
		for _, nb := range r.g.NeighborIndices(int32(i)) {
			if inCrash[nb] {
				d.Union(int32(i), nb)
				closure[i] = true
			}
		}
	}
	// Number the group roots in ascending index order (deterministic),
	// folding onto at most maxAutoShards shards.
	shardOf := make(map[int32]int32)
	for i := 0; i < n; i++ {
		if !closure[i] {
			continue
		}
		root := d.Find(int32(i))
		if _, ok := shardOf[root]; !ok {
			shardOf[root] = int32(len(shardOf) % maxAutoShards)
		}
	}
	groups := len(shardOf)
	if groups < 2 {
		return nil, 1
	}
	nshards := groups
	if nshards > maxAutoShards {
		nshards = maxAutoShards
	}
	owner := make([]int32, n)
	idle := int32(0)
	for i := 0; i < n; i++ {
		if closure[i] {
			owner[i] = shardOf[d.Find(int32(i))]
		} else {
			owner[i] = idle % int32(nshards)
			idle++
		}
	}
	return owner, nshards
}

// runSharded drives the shard lanes window by window until every queue
// drains.
func (r *Runner) runSharded(ctx context.Context, lanes []*lane) error {
	active := make([]*lane, 0, len(lanes))
	for {
		// W = earliest pending event across all shards.
		w := int64(-1)
		for _, ln := range lanes {
			if ln.queue.len() > 0 {
				if t := ln.queue.nextTime(); w < 0 || t < w {
					w = t
				}
			}
		}
		if w < 0 {
			return nil // quiescent
		}
		if ctx.Err() != nil {
			return fmt.Errorf("sim: run aborted at t=%d: %w", w, ctx.Err())
		}
		limit := w + r.lookahead
		active = active[:0]
		for _, ln := range lanes {
			if ln.queue.len() > 0 && ln.queue.nextTime() < limit {
				ln.limit = limit
				active = append(active, ln)
			}
		}
		r.qWindows++
		r.qLaneWindows += len(active)
		if len(active) == 1 {
			active[0].runWindow()
		} else {
			var wg sync.WaitGroup
			wg.Add(len(active))
			for _, ln := range active {
				go func(ln *lane) {
					defer wg.Done()
					ln.runWindow()
				}(ln)
			}
			wg.Wait()
		}
		for _, ln := range lanes {
			if ln.err != nil {
				return ln.err
			}
		}
		r.mergeTrace(lanes)
		// Route the outboxes. Push order across sources is irrelevant:
		// the queue orders each tick by (src, sseq). A source's events
		// reach a lane by one route (its owner's home queue or one
		// outbox), in sseq order, so the tick's counting sort needs no
		// fallback.
		for _, src := range lanes {
			for dst, box := range src.out {
				if len(box) == 0 {
					continue
				}
				for i := range box {
					lanes[dst].queue.push(box[i])
					box[i] = event{} // release the payload reference
				}
				src.out[dst] = box[:0]
			}
		}
		total := 0
		for _, ln := range lanes {
			total += ln.processed
		}
		if total > r.cfg.MaxEvents {
			return fmt.Errorf("sim: event budget %d exhausted at t=%d (livelock?)",
				r.cfg.MaxEvents, w)
		}
	}
}

// runWindow processes the lane's events with time < limit. Everything a
// handler schedules lands at ≥ now + lookahead ≥ limit (enforced in
// schedule), so the frontier only ever moves forward within the window.
func (ln *lane) runWindow() {
	for ln.queue.len() > 0 && ln.queue.nextTime() < ln.limit {
		ln.processed++
		ln.dispatch(ln.queue.pop())
		if ln.err != nil {
			return
		}
	}
}

// mergeTrace k-way-merges the lanes' buffered trace events into the
// shared log, ordered by the generating kernel event's key. Each kernel
// event is processed by exactly one lane, so keys never collide across
// lanes; events emitted under the same key are contiguous in one lane's
// buffer and drain together, reproducing the sequential emission order
// exactly (global Seq numbers, observers and all).
func (r *Runner) mergeTrace(lanes []*lane) {
	for {
		var best *lane
		for _, ln := range lanes {
			if ln.bufPos >= len(ln.buf) {
				continue
			}
			if best == nil || ln.buf[ln.bufPos].key.less(best.buf[best.bufPos].key) {
				best = ln
			}
		}
		if best == nil {
			break
		}
		r.record(&best.buf[best.bufPos].ev)
		best.bufPos++
	}
	for _, ln := range lanes {
		for i := range ln.buf {
			ln.buf[i] = pendingTrace{} // release string references
		}
		ln.buf = ln.buf[:0]
		ln.bufPos = 0
	}
}
