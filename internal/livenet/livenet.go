// Package livenet executes protocol automata with real concurrency: one
// goroutine per node, unbounded FIFO mailboxes as channels, and a
// registry-based perfect failure detector. It implements the same system
// contract as the deterministic simulator (asynchronous reliable FIFO
// channels, strong-accuracy/strong-completeness crash notifications,
// subscribe-after-crash delivery) but with scheduling decided by the Go
// runtime — demonstrating that the protocol's correctness is not an
// artifact of deterministic event ordering. The race detector is the
// intended companion of this package's tests.
//
// Like the simulator kernel, the runtime addresses nodes by their dense
// graph index (see graph.Graph.Index): automata and mailboxes live in flat
// slices, and the crashed set and the per-target subscriber sets are
// graph.Bitset values. NodeIDs appear only at the observable boundaries —
// trace events, automaton calls and results.
package livenet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cliffedge/internal/graph"
	"cliffedge/internal/netem"
	"cliffedge/internal/proto"
	"cliffedge/internal/trace"
)

// envelope is one unit of work queued at a node: a message delivery or a
// crash notification. Senders are carried as dense indices; the NodeID
// surfaces only when the envelope reaches the trace or an automaton.
type envelope struct {
	crashNotify bool
	from        int32 // sender (message) or crashed node (notify)
	payload     proto.Payload
	// delay is the link-fault model's ExtraDelay verdict for this
	// delivery, realised as wall-clock sleep when Options.TickEvery is
	// set; zero otherwise.
	delay int64
}

// mailbox is an unbounded FIFO queue backed by a growable power-of-two
// ring buffer. Unboundedness matters: with bounded channels two nodes
// flooding each other could deadlock on full buffers, which the paper's
// asynchronous reliable channels rule out. The ring replaces the old
// append + advance-the-slice queue, whose advancing view defeated
// append's amortisation (the vacated front slots were unreachable, so
// bursts reallocated the backing array over and over); the ring reaches
// a steady-state capacity and then never allocates again.
type mailbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []envelope // power-of-two ring; nil until the first put
	head   int        // masked index of the next envelope to dequeue
	count  int
	peak   int // deepest backlog this run; flushed to metrics at Result
	closed bool

	// turn is the node's step lock. The node's loop holds it for the whole
	// of one envelope: the crash check, the handler and every effect. A
	// wave (CrashAll, InjectAll) holds it for each of its members. So a
	// crash lands between two steps of the node, never inside one, and a
	// crashed node sends nothing more.
	turn sync.Mutex
}

func (m *mailbox) init() { m.cond.L = &m.mu }

func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	if !m.closed {
		if m.count == len(m.buf) {
			m.grow()
		}
		m.buf[(m.head+m.count)&(len(m.buf)-1)] = e
		m.count++
		if m.count > m.peak {
			m.peak = m.count
		}
	}
	m.mu.Unlock()
	m.cond.Signal()
}

// grow doubles the ring, unrolling the wrapped contents to the front.
func (m *mailbox) grow() {
	n := len(m.buf) * 2
	if n == 0 {
		n = 8
	}
	next := make([]envelope, n)
	for i := 0; i < m.count; i++ {
		next[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
	}
	m.buf = next
	m.head = 0
}

// get blocks until an envelope is available or the mailbox closes.
func (m *mailbox) get() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.count == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.count == 0 {
		return envelope{}, false
	}
	e := m.buf[m.head]
	m.buf[m.head] = envelope{} // release the payload reference
	m.head = (m.head + 1) & (len(m.buf) - 1)
	m.count--
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Runtime is a live cluster execution. Create with NewRuntime, drive
// crashes with CrashAll, synchronise with WaitIdleContext, finish with Stop.
type Runtime struct {
	g       *graph.Graph
	log     *trace.Log
	clock   atomic.Int64 // logical time for trace events
	pending atomic.Int64 // queued envelopes + in-progress handlers
	idle    chan struct{}

	// automata and boxes are indexed by dense graph index. Both are fully
	// populated before any node goroutine starts and never reassigned:
	// automata[i] is owned by node i's goroutine afterwards, boxes are
	// internally synchronised (stored by value in one flat allocation —
	// mailboxes never move once the loops run).
	automata []proto.Automaton
	boxes    []mailbox
	net      *netem.Net
	tick     time.Duration

	// statsOnly is the DiscardEvents-and-no-Observer posture: nothing
	// consumes the event stream in order, so emissions skip the shared
	// log entirely and fold into per-goroutine accumulators instead —
	// accs[i] is owned by node i's loop, accs[len(boxes)] (the ext slot,
	// guarded by extMu) serves caller-goroutine emissions (CrashAll).
	// They are merged after Stop's wg.Wait.
	statsOnly bool
	accs      []trace.Accumulator
	extMu     sync.Mutex

	mu        sync.Mutex
	crashed   graph.Bitset   // guarded by mu
	subs      []graph.Bitset // target index → subscriber indices; rows lazily allocated; guarded by mu
	wg        sync.WaitGroup
	stopped   bool
	published bool // metrics flushed once, by the first Result call
}

// Options configures optional Runtime behaviour.
type Options struct {
	// Observer, if non-nil, receives every trace event in sequence order
	// as it is appended. It runs under the log lock: keep it fast.
	Observer func(trace.Event)
	// DiscardEvents stops the trace from being retained; Result.Events is
	// nil while Stats and Observer still see everything.
	DiscardEvents bool
	// Net, if non-nil, adjudicates every inter-node send through the
	// deterministic link-fault model, keyed by the logical clock value of
	// the send event. Drop verdicts discard the envelope (traced as a
	// network drop), duplicate verdicts enqueue a second copy behind the
	// first (mailbox FIFO keeps them ordered). ExtraDelay is accounted in
	// the model's counters but not realised — wall-clock scheduling
	// belongs to the Go runtime here, and injecting sleeps would tie the
	// protocol's correctness to timing the live engine exists to vary.
	// The verdict stream itself is identical to the simulator's for
	// identical (from, to, sendTime) queries; sendTime being the logical
	// clock is what makes live outcomes scheduler-dependent under raw
	// loss, which is exactly what campaigns sample.
	Net *netem.Net
	// TickEvery, when positive, realises the network model's ExtraDelay
	// verdicts in wall time: a delivery delayed by d ticks sleeps
	// d × TickEvery in the receiving node's loop, immediately before
	// processing. The sleep happens in queue order, so per-link FIFO is
	// untouched — only timing degrades, which is exactly the retransmit-
	// mode contract — and netem-shaped behaviour (jitter bands, backoff,
	// outage heal waits) becomes observable wall-clock timing instead of
	// a counter. Zero (the default) leaves delays unrealised: scheduling
	// belongs to the Go runtime. Meaningless without Net.
	TickEvery time.Duration
}

// NewRuntime builds and starts a live cluster: every automaton is
// instantiated and its Start effects applied before NewRuntime returns.
// Observers are registered before any Start effect runs, so they see the
// complete trace.
func NewRuntime(g *graph.Graph, factory proto.Factory, opts Options) *Runtime {
	n := g.Len()
	rt := &Runtime{
		g:         g,
		log:       &trace.Log{},
		idle:      make(chan struct{}, 1),
		automata:  make([]proto.Automaton, n),
		boxes:     make([]mailbox, n),
		crashed:   graph.NewBitset(n),
		subs:      make([]graph.Bitset, n),
		net:       opts.Net,
		tick:      opts.TickEvery,
		statsOnly: opts.DiscardEvents && opts.Observer == nil,
	}
	if opts.Observer != nil {
		rt.log.Observe(opts.Observer)
	}
	if opts.DiscardEvents {
		rt.log.DiscardEvents()
	}
	if rt.statsOnly {
		rt.accs = make([]trace.Accumulator, n+1)
	}
	for i := int32(0); i < int32(n); i++ {
		rt.automata[i] = factory(g.ID(i))
		rt.boxes[i].init()
	}
	// Apply 〈init〉 effects before spawning the node loops: an automaton
	// must never observe a message ahead of its own Start. Effects only
	// enqueue into mailboxes, which buffer until the loops run. Index
	// order is sorted NodeID order, so the trace prefix is unchanged.
	for i := int32(0); i < int32(n); i++ {
		rt.trackEnter()
		rt.applyEffects(i, rt.automata[i].Start())
		rt.trackExit()
	}
	for i := int32(0); i < int32(n); i++ {
		rt.wg.Add(1)
		go rt.nodeLoop(i)
	}
	return rt
}

func (rt *Runtime) now() int64 { return rt.clock.Add(1) }

// extSlot is the emission slot for caller-goroutine events (CrashAll);
// node i emits on slot i from its own loop.
func (rt *Runtime) extSlot() int32 { return int32(len(rt.boxes)) }

// emit appends e on behalf of slot i. See emitT.
func (rt *Runtime) emit(e trace.Event, i int32) { rt.emitT(e, i) }

// emitT stamps e with a fresh logical-clock tick and returns the tick —
// the send path uses it as the link-fault adjudication time. In the
// statsOnly posture the event folds into slot i's accumulator and never
// touches the shared log (or its lock); otherwise it goes through the
// log, picking up its global sequence number for observers.
func (rt *Runtime) emitT(e trace.Event, i int32) int64 {
	t := rt.now()
	e.Time = t
	if rt.statsOnly {
		rt.accs[i].Add(e)
	} else {
		rt.log.Append(e)
	}
	return t
}

// emitExt emits from a caller goroutine (not a node loop): the ext slot
// is shared by all callers, hence the lock.
func (rt *Runtime) emitExt(e trace.Event) {
	rt.extMu.Lock()
	rt.emitT(e, rt.extSlot())
	rt.extMu.Unlock()
}

// trackEnter/trackExit maintain the in-flight work counter used by
// WaitIdleContext's quiescence detection.
func (rt *Runtime) trackEnter() { rt.pending.Add(1) }

func (rt *Runtime) trackExit() {
	if rt.pending.Add(-1) == 0 {
		select {
		case rt.idle <- struct{}{}:
		default:
		}
	}
}

func (rt *Runtime) nodeLoop(i int32) {
	defer rt.wg.Done()
	box := &rt.boxes[i]
	for {
		env, ok := box.get()
		if !ok {
			return
		}
		rt.process(i, env)
		rt.trackExit() // matches the trackEnter done at enqueue time
	}
}

func (rt *Runtime) process(i int32, env envelope) {
	if rt.tick > 0 && env.delay > 0 {
		// Realise the link-imposed delay in the consumer, so it applies in
		// queue order and cannot reorder the channel's FIFO.
		time.Sleep(time.Duration(env.delay) * rt.tick)
	}
	turn := &rt.boxes[i].turn
	turn.Lock()
	defer turn.Unlock()
	rt.mu.Lock()
	dead := rt.crashed.Has(i)
	rt.mu.Unlock()
	id := rt.g.ID(i)
	if dead {
		if !env.crashNotify {
			rt.emit(trace.Event{Kind: trace.KindDrop, Node: id, Peer: rt.g.ID(env.from),
				Bytes: env.payload.WireSize()}, i)
		}
		return
	}
	a := rt.automata[i]
	if env.crashNotify {
		rt.emit(trace.Event{Kind: trace.KindDetect, Node: id, Peer: rt.g.ID(env.from)}, i)
		rt.applyEffects(i, a.OnCrash(rt.g.ID(env.from)))
		return
	}
	var view string
	var round int
	if m, ok := env.payload.(interface{ TraceView() (string, int) }); ok {
		view, round = m.TraceView()
	}
	rt.emit(trace.Event{Kind: trace.KindDeliver, Node: id, Peer: rt.g.ID(env.from),
		View: view, Round: round, Bytes: env.payload.WireSize()}, i)
	rt.applyEffects(i, a.OnMessage(rt.g.ID(env.from), env.payload))
}

func (rt *Runtime) applyEffects(i int32, eff proto.Effects) {
	id := rt.g.ID(i)
	for _, q := range eff.Monitor {
		rt.subscribe(i, q)
	}
	for _, v := range eff.Proposed {
		rt.emit(trace.Event{Kind: trace.KindPropose, Node: id, View: v.Key()}, i)
	}
	for _, v := range eff.Rejected {
		rt.emit(trace.Event{Kind: trace.KindReject, Node: id, View: v.Key()}, i)
	}
	for r := 0; r < eff.Resets; r++ {
		rt.emit(trace.Event{Kind: trace.KindReset, Node: id}, i)
	}
	for _, s := range eff.Sends {
		size := s.Payload.WireSize()
		var view string
		var round int
		if m, ok := s.Payload.(interface{ TraceView() (string, int) }); ok {
			view, round = m.TraceView()
		}
		for _, ti := range s.To {
			if ti == i {
				continue // sender's own copy is self-delivered by the automaton
			}
			to := rt.g.ID(ti)
			sentAt := rt.emitT(trace.Event{Kind: trace.KindSend, Node: id, Peer: to,
				View: view, Round: round, Bytes: size}, i)
			duplicate := false
			var delay int64
			if rt.net != nil {
				// Nonce 0: the logical clock already gives every send a
				// unique adjudication time.
				v := rt.net.Adjudicate(i, ti, sentAt, 0)
				if v.Drop {
					// Lost on the wire: trace the network drop, enqueue
					// nothing (the ledger conserves: send = drop).
					rt.emit(trace.Event{Kind: trace.KindDrop, Node: to, Peer: id,
						Bytes: size}, i)
					continue
				}
				duplicate = v.Duplicate
				delay = v.ExtraDelay
			}
			rt.trackEnter()
			rt.boxes[ti].put(envelope{from: i, payload: s.Payload, delay: delay})
			if duplicate {
				// Duplicated copy behind the original on the same channel;
				// mailbox FIFO keeps the pair ordered.
				rt.trackEnter()
				rt.boxes[ti].put(envelope{from: i, payload: s.Payload, delay: delay})
			}
		}
	}
	if eff.Decision != nil {
		rt.emit(trace.Event{Kind: trace.KindDecide, Node: id,
			View: eff.Decision.View.Key(), Value: string(eff.Decision.Value)}, i)
	}
}

// subscribe registers p for crash notifications about q, delivering
// immediately if q already crashed (subscribe-after-crash).
func (rt *Runtime) subscribe(p, q int32) {
	rt.mu.Lock()
	row := rt.subs[q]
	if row == nil {
		row = graph.NewBitset(len(rt.boxes))
		rt.subs[q] = row
	}
	already := row.Has(p)
	row.Set(p)
	deadAlready := rt.crashed.Has(q)
	rt.mu.Unlock()
	if !already && deadAlready {
		rt.trackEnter()
		rt.boxes[p].put(envelope{crashNotify: true, from: q})
	}
}

// CrashAll kills a wave of nodes atomically: a crashed node stops
// processing, its queued messages are dropped, and every subscriber is
// notified (strong completeness). Every node of the wave is flagged
// crashed before the first notification goes out, so no wave member can
// keep participating between the individual crashes — mirroring the
// simulator, where all crashes scheduled at one virtual instant precede
// every detection of them.
// Subscribers of each crashed node are then notified in index (= NodeID)
// order, per node in wave order. Every member's turn is held from before
// the flag until the wave is traced and notified, so a handler a member
// is running when the wave arrives finishes first, and traces its sends
// before the crash.
func (rt *Runtime) CrashAll(ns ...graph.NodeID) {
	rt.trackEnter()
	defer rt.trackExit()
	defer rt.unlockTurns(rt.lockTurns(ns))
	rt.mu.Lock()
	newly := make([]int32, 0, len(ns))
	for _, n := range ns {
		i := rt.g.Index(n)
		if i < 0 || rt.crashed.Has(i) {
			continue
		}
		rt.crashed.Set(i)
		newly = append(newly, i)
	}
	notify := make([][]int32, len(newly))
	for k, i := range newly {
		if row := rt.subs[i]; row != nil {
			notify[k] = row.AppendIndices(make([]int32, 0, row.Count()))
		}
	}
	rt.mu.Unlock()
	for k, i := range newly {
		rt.emitExt(trace.Event{Kind: trace.KindCrash, Node: rt.g.ID(i)})
		for _, p := range notify[k] {
			rt.trackEnter()
			rt.boxes[p].put(envelope{crashNotify: true, from: i})
		}
	}
}

// InjectAll delivers payload to every node of ns as a message from itself
// — the live counterpart of sim.InjectAt, used e.g. to mark nodes in the
// stable-predicate extension. Like CrashAll it is atomic: no member
// handles anything until every member's envelope is queued, so the
// effects of one member's injection reach the others behind their own.
func (rt *Runtime) InjectAll(payload proto.Payload, ns ...graph.NodeID) {
	defer rt.unlockTurns(rt.lockTurns(ns))
	for _, n := range ns {
		if i := rt.g.Index(n); i >= 0 {
			rt.trackEnter()
			rt.boxes[i].put(envelope{from: i, payload: payload})
		}
	}
}

// lockTurns takes the turn of every graph member of ns and returns their
// indices. It locks in index order, so two waves never deadlock.
func (rt *Runtime) lockTurns(ns []graph.NodeID) []int32 {
	wave := make([]int32, 0, len(ns))
	for _, n := range ns {
		if i := rt.g.Index(n); i >= 0 {
			wave = append(wave, i)
		}
	}
	slices.Sort(wave)
	wave = slices.Compact(wave)
	for _, i := range wave {
		rt.boxes[i].turn.Lock()
	}
	return wave
}

func (rt *Runtime) unlockTurns(wave []int32) {
	for _, i := range wave {
		rt.boxes[i].turn.Unlock()
	}
}

// WaitIdleContext blocks until no envelope is queued or being processed,
// i.e. the cluster is quiescent, or the timeout elapses. It returns early
// with the context's error if ctx is cancelled or expires first.
func (rt *Runtime) WaitIdleContext(ctx context.Context, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if rt.pending.Load() == 0 {
			return nil
		}
		select {
		case <-rt.idle:
			// Re-check: a new envelope may have been enqueued since.
		case <-ctx.Done():
			return fmt.Errorf("livenet: wait aborted (%d in flight): %w",
				rt.pending.Load(), ctx.Err())
		case <-deadline.C:
			return fmt.Errorf("livenet: not idle after %v (%d in flight)",
				timeout, rt.pending.Load())
		}
	}
}

// Stop shuts the cluster down and waits for every node goroutine to exit,
// so every observer call has returned when it does. The runtime must be
// idle; automata may be inspected afterwards.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	rt.mu.Unlock()
	for i := range rt.boxes {
		rt.boxes[i].close()
	}
	rt.wg.Wait()
}

// Result summarises a stopped runtime.
type Result struct {
	Events    []trace.Event
	Stats     trace.Stats
	Decisions map[graph.NodeID]*proto.Decision
	Automata  map[graph.NodeID]proto.Automaton
	Crashed   map[graph.NodeID]bool
}

// Result gathers the trace and final automaton states. Call only after
// Stop.
func (rt *Runtime) Result() *Result {
	events := rt.log.Events()
	stats := rt.log.Stats()
	if rt.statsOnly {
		// Merge the per-goroutine shards; Stop's wg.Wait ordered every
		// node's last fold before this read.
		var acc trace.Accumulator
		for i := range rt.accs {
			acc.Merge(&rt.accs[i])
		}
		stats = acc.Stats()
	}
	decisions := make(map[graph.NodeID]*proto.Decision)
	crashed := make(map[graph.NodeID]bool, rt.crashed.Count())
	rt.crashed.ForEach(func(i int32) {
		crashed[rt.g.ID(i)] = true
	})
	automata := make(map[graph.NodeID]proto.Automaton, len(rt.automata))
	for i, a := range rt.automata {
		id := rt.g.ID(int32(i))
		automata[id] = a
		if d := a.Decided(); d != nil && !crashed[id] {
			decisions[id] = d
		}
	}
	rt.publishMetrics(stats)
	return &Result{
		Events:    events,
		Stats:     stats,
		Decisions: decisions,
		Automata:  automata,
		Crashed:   crashed,
	}
}
