// Package sim is the deterministic discrete-event runtime for protocol
// automata. It implements the system model of the paper's §2.2 exactly:
//
//   - asynchronous, reliable, FIFO point-to-point channels between any two
//     nodes, each message delayed by a draw from a uniform latency band;
//   - a perfect failure detector offered as a subscription service
//     (〈monitorCrash | S〉 → 〈crash | q〉) satisfying strong accuracy and
//     strong completeness, including subscriptions issued after the target
//     already crashed;
//   - crash injection, either at fixed virtual times or triggered by trace
//     events (e.g. "crash paris right after madrid's first proposal", the
//     Fig. 1(b) scenario).
//
// Runs are reproducible bit for bit from (graph, schedule, seed): the
// event queue is ordered by a strict total key, all iteration is over
// sorted data, and every random draw is a pure function of its own
// coordinates rather than of global draw order.
//
// # Kernel invariants
//
// The kernel addresses nodes by their dense graph index (graph.Index) and
// keeps all per-node and per-channel state in index-addressed flat
// structures — crash state in bitsets, subscribers and FIFO floors in
// per-node sorted slices, the event queue as a calendar of per-tick buckets
// over one pool of value-stored events — so the hot loop performs no
// string hashing and no steady-state allocation.
// Three invariants make this safe, keep traces bit-identical to the
// sequential kernel at any shard count, and keep virtual time monotone:
//
//  1. Every random draw (message latency, failure-detection latency,
//     link-fault verdict) is keyed on (seed, from, to, sendTime, nonce)
//     with a per-sender nonce — a counter-based pure hash, exactly the
//     netem scheme — so a draw depends only on *what* is being delayed,
//     never on how many draws other channels made first.
//  2. Events are totally ordered by (time, src, sseq) where src is the
//     node that scheduled the event and sseq a per-source counter. The
//     key is assigned where the event is born, so it is identical no
//     matter which shard schedules it, and with all loop latencies ≥ 1
//     the global pop order equals the key-sorted order — which is what
//     lets per-shard streams merge back into the sequential trace.
//  3. Trace annotations derived from a payload (view, round, wire size)
//     are computed once when the message is scheduled and carried on the
//     event, never recomputed at delivery — payloads are immutable, so
//     the values are identical and the per-delivery interface assertion
//     disappears from the hot path.
//
// Config validation keeps virtual time monotone and finite: latency bands
// have 1 ≤ Min ≤ Max, and config times, trigger delays and band maxima
// lie in [0, netem.MaxTick]. An event scheduled before the current time or
// past maxTime (a kernel bug, or link-fault delays that add up) ends the
// run with an error; the event queue still panics on a push below its
// open tick, which makes misordering a checked invariant.
//
// NodeIDs appear only at the boundaries: config validation, trace events,
// the automaton handlers' arguments and the final Result. Automata name
// their recipients and subscriptions by dense index too (proto.Send.To,
// proto.Effects.Monitor), so the kernel never resolves a name per message.
package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"cliffedge/internal/graph"
	"cliffedge/internal/netem"
	"cliffedge/internal/proto"
	"cliffedge/internal/trace"
)

// CrashAt schedules a crash of Node at virtual time Time.
type CrashAt struct {
	Time int64
	Node graph.NodeID
}

// Trigger schedules an action on Node `Delay` ticks after the first trace
// event matching When: a crash by default, or the delivery of Payload when
// it is non-nil (an event-conditioned injection, e.g. a predicate mark).
// Triggers fire at most once.
type Trigger struct {
	Node    graph.NodeID
	When    func(trace.Event) bool
	Delay   int64
	Payload proto.Payload
}

// InjectAt delivers Payload to Node at virtual time Time, as a message
// from the node itself. Injections model external commands to an automaton
// (e.g. "your stable predicate now holds" in the predicate extension).
type InjectAt struct {
	Time    int64
	Node    graph.NodeID
	Payload proto.Payload
}

// AutoShards asks the kernel to pick the shard count itself: one shard
// per connected crashed-region domain group (domains sharing a border
// node are grouped), falling back to sequential when the run has fewer
// than two groups.
const AutoShards = -1

// Config parameterises a simulation run.
type Config struct {
	// Graph is the system topology G = (Π, E). Required.
	Graph *graph.Graph
	// Factory instantiates the automaton for each node. Required.
	Factory proto.Factory
	// Seed drives all randomised latencies. Same seed → same run.
	Seed int64
	// NetLatency delays messages; the zero band means Uniform{1, 10}.
	NetLatency Uniform
	// FDLatency delays failure detections; the zero band means
	// Uniform{1, 10}.
	FDLatency Uniform
	// Net, if non-nil, adjudicates every inter-node transmission through
	// the deterministic link-fault model: extra delay is added before the
	// FIFO-floor clamp (per-channel FIFO is preserved), raw-loss drops
	// are traced as network drops at send time, and duplicates schedule a
	// second delivery on the same channel. Self-deliveries (injections,
	// triggers) bypass the model. Failure-detector notifications are a
	// separate abstract service and are never adjudicated.
	Net *netem.Net
	// Crashes are the scheduled failures.
	Crashes []CrashAt
	// Triggers are the event-triggered failures.
	Triggers []Trigger
	// Injections are externally scheduled payload deliveries.
	Injections []InjectAt
	// MaxEvents aborts runaway runs; defaults to 50 million kernel events.
	MaxEvents int
	// Shards is the number of kernel event sub-queues to run in parallel
	// under the conservative time-window barrier. 0 and 1 run the classic
	// sequential kernel; AutoShards partitions by crashed-region domain
	// group. Any value emits a trace byte-identical to the sequential
	// kernel's. The kernel runs sequentially regardless when Triggers are
	// present (trigger predicates inspect the globally ordered trace).
	Shards int
	// Observer, if non-nil, receives every trace event as it is emitted,
	// in sequence order (an online sink for checkers, metrics, streaming
	// encoders, …). Setting it is one of the three things that make the
	// kernel build events at all (see DiscardEvents).
	Observer func(trace.Event)
	// DiscardEvents stops the trace from being retained in memory:
	// Result.Events is nil, while Observer and Triggers still see every
	// event. Combined with Observer this bounds a run's memory by the
	// topology, not the trace length.
	//
	// A trace.Event is built only if something consumes it: the trace is
	// retained, an Observer is set, or Triggers exist. With DiscardEvents
	// set and neither of the others, the kernel builds no event at all.
	// Result.Stats never depends on any of this: the kernel counts it
	// where the events happen, whether or not an event is built.
	DiscardEvents bool
}

// Result is a finished (quiescent) run.
type Result struct {
	// Events is the full trace in delivery order.
	Events []trace.Event
	// Stats aggregates the run: what trace.Summarize would compute from
	// the full trace, counted by the kernel whether or not a trace exists.
	Stats trace.Stats
	// Decisions maps each decided node to its decision.
	Decisions map[graph.NodeID]*proto.Decision
	// Automata exposes the final per-node state for inspection, by dense
	// graph index. It is the runner's own slice: valid until the runner's
	// next Reset, which reuses it.
	Automata []proto.Automaton
	// Crashed is the set of nodes that crashed during the run.
	Crashed map[graph.NodeID]bool
	// EndTime is the virtual time of quiescence.
	EndTime int64
}

type evKind uint8

const (
	evCrash evKind = iota
	evDetect
	evDeliver
	evSubscribe
)

// event is one kernel event, stored by value in the queue. Nodes are
// dense graph indices; view/round/bytes are the trace annotations of the
// payload, precomputed at scheduling time. (src, sseq) identify the
// scheduling site: src is the node whose event processing created this
// event (-1 for events born from the config), sseq a per-source counter —
// together with time they form the event's key (see key).
//
// The key fields are spelled out rather than embedded as an eventKey:
// Go does not reuse an embedded struct's tail padding, so embedding
// would grow an event from 72 to 80 bytes.
type event struct {
	time    int64
	sseq    int64
	src     int32
	kind    evKind
	node    int32 // crash target / subscriber / recipient / monitored node
	peer    int32 // crashed node (detect) / sender (deliver) / subscriber (subscribe)
	round   int32
	bytes   int32
	view    string
	payload proto.Payload
}

func (e *event) key() eventKey { return eventKey{time: e.time, sseq: e.sseq, src: e.src} }

// eventKey is an event's total-order key. It orders the event queue and
// merges per-shard trace buffers back into the sequential emission order.
type eventKey struct {
	time int64
	sseq int64
	src  int32
}

// compare orders keys by (time, src, sseq): the kernel's one total order.
func (a eventKey) compare(b eventKey) int {
	if a.time != b.time {
		return cmp.Compare(a.time, b.time)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.sseq, b.sseq)
}

func (a eventKey) less(b eventKey) bool { return a.compare(b) < 0 }

// Runner executes one simulation. Create with NewRunner, execute with Run.
// A Runner is consumed by its run: a second Run/RunContext returns an
// error until Reset arms it for the next run.
type Runner struct {
	cfg   Config
	g     *graph.Graph
	armed bool

	// tracing is whether anything consumes trace events (see
	// Config.DiscardEvents); when it is false none is built. events is
	// the retained trace, nextSeq the next Event.Seq.
	tracing bool
	events  []trace.Event
	nextSeq int

	// netSeed/fdSeed key the counter-based latency draws; srcSeq and
	// chanNonce are the per-source scheduling and per-sender draw
	// counters (one slice element per node, so concurrent shards touch
	// disjoint memory). initSeq orders events born from the config
	// (src = -1).
	netSeed, fdSeed uint64
	srcSeq          []int64
	chanNonce       []uint64
	initSeq         int64

	// lookahead is the smaller band's Min, the least delay of any event a
	// handler schedules: it is the sharded kernel's window width, and it
	// delays in-loop failure-detector subscriptions so they are kernel
	// events processed in the monitored node's shard.
	lookahead int64

	// initPhase is true while 〈init〉 runs: subscriptions mutate subs
	// directly (nothing has crashed yet) instead of becoming events.
	initPhase bool

	// automata and crashed are indexed by dense graph index; owner maps
	// each node to its shard (nil when sequential).
	automata []proto.Automaton
	crashed  graph.Bitset
	owner    []int32
	// subs[q] lists the subscribers to 〈crash | q〉 notifications in
	// ascending index order, the sorted order strong completeness
	// notifies in. Row q is only touched while processing an event at q,
	// i.e. by q's owner shard.
	subs [][]int32
	// floors enforces per-channel FIFO (see chanFloors).
	floors   chanFloors
	triggers []Trigger
	fired    []bool

	// Aggregates merged from the lanes after the run: see lane.stats.
	stats        trace.Stats
	participants graph.Bitset
	endTime      int64
	// Metrics accumulators, plain ints flushed once per run: events
	// processed (summed from the lanes in mergeLanes), window barriers
	// and active-lane windows (counted by the sharded driver).
	qEvents, qWindows, qLaneWindows int

	// lanes are the execution streams of the runs so far, kept for the
	// next: lanes[0] is the stem, lanes[1:] the shards (see lane).
	lanes []*lane
}

// NewRunner validates cfg and builds a Runner: Reset on a zero Runner.
func NewRunner(cfg Config) (*Runner, error) {
	r := new(Runner)
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset validates cfg and arms r for one run of it. A Runner reused this
// way keeps what its earlier runs allocated — the event queues' chunks,
// the per-node arrays and bitsets, the subscriber and FIFO-floor rows and
// the lanes — and starts from the state a new Runner would: same trace,
// same Result. A Result of an earlier run stays valid except for its
// Automata slice, which is the per-node array Reset reuses. When cfg is
// invalid, r is left disarmed.
func (r *Runner) Reset(cfg Config) error {
	r.armed = false
	if cfg.Graph == nil {
		return fmt.Errorf("sim: Config.Graph is required")
	}
	if cfg.Factory == nil {
		return fmt.Errorf("sim: Config.Factory is required")
	}
	if cfg.NetLatency == (Uniform{}) {
		cfg.NetLatency = defaultLatency
	}
	if cfg.FDLatency == (Uniform{}) {
		cfg.FDLatency = defaultLatency
	}
	if err := cfg.NetLatency.check("NetLatency"); err != nil {
		return err
	}
	if err := cfg.FDLatency.check("FDLatency"); err != nil {
		return err
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 50_000_000
	}
	if cfg.Shards < AutoShards {
		return fmt.Errorf("sim: Config.Shards must be ≥ %d (AutoShards), got %d",
			AutoShards, cfg.Shards)
	}
	for _, c := range cfg.Crashes {
		if !cfg.Graph.Has(c.Node) {
			return fmt.Errorf("sim: scheduled crash of unknown node %q", c.Node)
		}
		if c.Time < 0 || c.Time > netem.MaxTick {
			return fmt.Errorf("sim: crash of %q at time %d outside [0, %d]", c.Node, c.Time, netem.MaxTick)
		}
	}
	for _, t := range cfg.Triggers {
		if !cfg.Graph.Has(t.Node) {
			return fmt.Errorf("sim: trigger on unknown node %q", t.Node)
		}
		if t.Delay < 0 || t.Delay > netem.MaxTick {
			return fmt.Errorf("sim: trigger on %q with delay %d outside [0, %d]", t.Node, t.Delay, netem.MaxTick)
		}
	}
	for _, inj := range cfg.Injections {
		if !cfg.Graph.Has(inj.Node) {
			return fmt.Errorf("sim: injection into unknown node %q", inj.Node)
		}
		if inj.Time < 0 || inj.Time > netem.MaxTick {
			return fmt.Errorf("sim: injection into %q at time %d outside [0, %d]", inj.Node, inj.Time, netem.MaxTick)
		}
	}
	n := cfg.Graph.Len()
	*r = Runner{
		cfg:     cfg,
		g:       cfg.Graph,
		armed:   true,
		tracing: !cfg.DiscardEvents || cfg.Observer != nil || len(cfg.Triggers) > 0,
		// Distinct domain-separation tags keep the message-latency and
		// failure-detection streams independent even for equal (from,
		// to, time) coordinates.
		netSeed:      splitmix64(uint64(cfg.Seed) ^ 0x6E65_745F_6C61_7401), // "net_lat"
		fdSeed:       splitmix64(uint64(cfg.Seed) ^ 0x6664_5F6C_6174_0002), // "fd_lat"
		srcSeq:       resize(r.srcSeq, n),
		chanNonce:    resize(r.chanNonce, n),
		automata:     resize(r.automata, n),
		crashed:      r.crashed.Reset(n),
		subs:         emptyRows(r.subs, n),
		floors:       emptyRows(r.floors, n),
		triggers:     cfg.Triggers,
		fired:        resize(r.fired, len(cfg.Triggers)),
		participants: r.participants.Reset(n),
		lanes:        r.lanes,
		lookahead:    min(cfg.NetLatency.Min, cfg.FDLatency.Min),
	}
	return nil
}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// extend returns s with length n, keeping its elements; new ones are zero.
func extend[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// emptyRows returns rows with length n and every row empty, keeping the
// rows' arrays.
func emptyRows[T any](rows [][]T, n int) [][]T {
	rows = extend(rows, n)
	for i, row := range rows {
		rows[i] = row[:0]
	}
	return rows
}

// Run executes the simulation to quiescence (empty event queue) and
// returns the result. It errors if the kernel event budget is exhausted,
// which indicates a livelock bug in the automaton under test.
func (r *Runner) Run() (*Result, error) { return r.RunContext(context.Background()) }

// RunContext is Run with cancellation: the context is polled every few
// hundred kernel events, and a cancelled or expired context aborts the run
// with the context's error.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	if !r.armed {
		return nil, fmt.Errorf("sim: Runner already consumed (or never armed); Reset it before each run")
	}
	r.armed = false

	// 〈init〉 on every node, in sorted order (= index order), on a
	// sequential stem lane. All init-time trace events and subscriptions
	// happen before any kernel event, identically at every shard count.
	stem := r.lane(0, 0, 1)
	r.initPhase = true
	for i, id := range r.g.Nodes() {
		a := r.cfg.Factory(id)
		r.automata[i] = a
		eff := a.Start()
		stem.applyEffects(int32(i), id, &eff)
	}
	r.initPhase = false
	stem.cur = -1
	for _, c := range r.cfg.Crashes {
		stem.schedule(event{time: c.Time, kind: evCrash, node: r.g.Index(c.Node)})
	}
	for _, inj := range r.cfg.Injections {
		i := r.g.Index(inj.Node)
		view, round := payloadTraceView(inj.Payload)
		stem.schedule(event{time: inj.Time, kind: evDeliver, node: i, peer: i,
			view: view, round: int32(round), bytes: int32(inj.Payload.WireSize()),
			payload: inj.Payload})
	}
	if stem.err != nil {
		return nil, stem.err
	}

	lanes := []*lane{stem}
	owner, nshards := r.plan()
	if nshards <= 1 {
		if err := r.runSequential(ctx, stem); err != nil {
			return nil, err
		}
	} else {
		r.owner = owner
		shards := make([]*lane, nshards)
		for s := range shards {
			shards[s] = r.lane(1+s, s, nshards)
		}
		// Distribute the init-phase backlog to its owner shards. drain
		// hands it over in key order, so every source's events reach a
		// shard in sseq order, as the calendar's counting sort expects.
		for _, ev := range stem.queue.drain() {
			shards[owner[ev.node]].queue.push(ev)
		}
		if err := r.runSharded(ctx, shards); err != nil {
			return nil, err
		}
		lanes = append(lanes, shards...)
	}
	r.mergeLanes(lanes)

	decisions := make(map[graph.NodeID]*proto.Decision)
	crashed := make(map[graph.NodeID]bool, r.crashed.Count())
	for i, a := range r.automata {
		id := r.g.ID(int32(i))
		if r.crashed.Has(int32(i)) {
			crashed[id] = true
		} else if d := a.Decided(); d != nil {
			decisions[id] = d
		}
	}
	r.participants.ForEach(func(i int32) {
		if !r.crashed.Has(i) {
			r.stats.Participants++
		}
	})
	r.publishRunMetrics(r.stats)
	return &Result{
		Events:    r.events,
		Stats:     r.stats,
		Decisions: decisions,
		Automata:  r.automata,
		Crashed:   crashed,
		EndTime:   r.endTime,
	}, nil
}

// runSequential is the classic kernel loop: one lane, direct trace
// emission, trigger evaluation inline.
func (r *Runner) runSequential(ctx context.Context, ln *lane) error {
	for ln.queue.len() > 0 {
		if ln.processed&0x1FF == 0 && ctx.Err() != nil {
			return fmt.Errorf("sim: run aborted at t=%d: %w", ln.now, ctx.Err())
		}
		if ln.processed++; ln.processed > r.cfg.MaxEvents {
			return fmt.Errorf("sim: event budget %d exhausted at t=%d (livelock?)",
				r.cfg.MaxEvents, ln.now)
		}
		ln.dispatch(ln.queue.pop())
		if ln.err != nil {
			return ln.err
		}
	}
	return nil
}

// mergeLanes folds the per-lane execution state back into the Runner:
// crash sets, participant sets and counters are disjoint-owner partitions
// and every Stats field is a commutative reduction, so a bitwise OR / sum /
// maximum reconstructs exactly the sequential aggregates.
func (r *Runner) mergeLanes(lanes []*lane) {
	for _, ln := range lanes {
		for w := range r.crashed {
			r.crashed[w] |= ln.crashed[w]
		}
		for w := range r.participants {
			r.participants[w] |= ln.participants[w]
		}
		r.stats.Merge(ln.stats)
		if ln.now > r.endTime {
			r.endTime = ln.now
		}
		r.qEvents += ln.processed
	}
}

// record appends one event to the run's trace: it stamps the sequence
// number in place, retains the event unless the trace is discarded, and
// hands it to the observer.
func (r *Runner) record(e *trace.Event) {
	e.Seq = r.nextSeq
	r.nextSeq++
	if !r.cfg.DiscardEvents {
		r.events = append(r.events, *e)
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer(*e)
	}
}

// payloadTraceView extracts the (view, round) trace annotation from a
// payload, once, at scheduling time.
func payloadTraceView(p proto.Payload) (string, int) {
	if m, ok := p.(interface {
		TraceView() (string, int)
	}); ok {
		return m.TraceView()
	}
	return "", 0
}

// pendingTrace is one trace event buffered by a shard lane, tagged with
// the key of the kernel event that emitted it so the barrier can merge
// per-lane buffers back into the sequential emission order.
type pendingTrace struct {
	key eventKey
	ev  trace.Event
}

// lane is one execution stream of the kernel: the sequential driver runs
// a single direct lane; the sharded driver runs one buffered lane per
// shard. All handler code is shared. A lane only ever mutates state owned
// by the nodes assigned to it (its crash bits, their subs/floors/
// srcSeq/chanNonce rows), which is what makes the sharded drivers
// race-free without locks.
type lane struct {
	r     *Runner
	id    int
	queue eventQueue
	now   int64
	// limit is the exclusive end of the current time window (sharded
	// only): popping stops at it, and nothing may be scheduled below it.
	limit int64
	// cur is the scheduling source (event key src) for events created
	// while the lane processes the current event.
	cur    int32
	curKey eventKey
	// direct lanes append to the run's trace and evaluate triggers
	// inline; buffered lanes collect pendingTrace entries merged at the
	// window barrier.
	direct  bool
	crashed graph.Bitset
	buf     []pendingTrace
	bufPos  int
	out     [][]event
	err     error

	processed int
	// stats is this lane's share of Result.Stats, counted at the site of
	// every event the trace has (or, with nothing consuming events, would
	// have had): counters by kind, MaxRound, DecideTime, and EndTime — the
	// time of the last such event, which a kernel event that emits nothing
	// (a subscription, a detection at a crashed node) does not move. Participants stays 0 here; participants holds the nodes
	// that sent or received, and the crashed ones are taken out at the end.
	stats        trace.Stats
	participants graph.Bitset
}

// lane returns r.lanes[k], set up as lane id of nshards for the run
// about to start. The lane keeps the memory of its earlier runs: its
// event queue's chunks, its bitsets and its trace and outbox buffers.
func (r *Runner) lane(k, id, nshards int) *lane {
	for len(r.lanes) <= k {
		r.lanes = append(r.lanes, new(lane))
	}
	ln := r.lanes[k]
	old := *ln
	n := r.g.Len()
	clear(old.buf) // non-empty only after a run that stopped early
	*ln = lane{
		r:            r,
		id:           id,
		queue:        old.queue,
		direct:       nshards <= 1,
		crashed:      old.crashed.Reset(n),
		participants: old.participants.Reset(n),
		buf:          old.buf[:0],
	}
	ln.queue.reset(int32(n))
	if !ln.direct {
		ln.out = extend(old.out, nshards)
		for dst, box := range ln.out {
			clear(box)
			ln.out[dst] = box[:0]
		}
	}
	return ln
}

// maxTime is the horizon of virtual time. Config times, trigger delays and
// band maxima are at most netem.MaxTick (2^48) and a link-fault verdict's
// ExtraDelay is below 2^62, so no event time computed from a current time
// ≤ maxTime overflows an int64. Link-fault delays can still add up past
// it; schedule ends the run with an error when they do.
const maxTime = int64(1) << 61

// schedule assigns the event's total-order key and routes it: direct
// lanes push to their own queue; shard lanes push home events and outbox
// the rest. It ends the run with an error, and schedules nothing, for an
// event before the current time or past maxTime, and on a shard lane for
// an event inside the open window. Every delay a handler adds is at least
// the lookahead, so only an overflow or a kernel bug gets here: the window
// check is the sharded counterpart of the queue's panic on a push below
// its open tick.
func (ln *lane) schedule(ev event) {
	if ev.time < ln.now || ev.time > maxTime {
		ln.fail(fmt.Errorf("sim: event scheduled at t=%d for t=%d, outside [now, %d]: virtual time overflowed or ran backwards",
			ln.now, ev.time, maxTime))
		return
	}
	if !ln.direct && ev.time < ln.limit {
		ln.fail(fmt.Errorf("sim: sharded kernel scheduled an event at t=%d inside the open window ending at t=%d",
			ev.time, ln.limit))
		return
	}
	ev.src = ln.cur
	if ln.cur < 0 {
		ev.sseq = ln.r.initSeq
		ln.r.initSeq++
	} else {
		ev.sseq = ln.r.srcSeq[ln.cur]
		ln.r.srcSeq[ln.cur]++
	}
	if ln.direct {
		ln.queue.push(ev)
		return
	}
	if o := int(ln.r.owner[ev.node]); o == ln.id {
		ln.queue.push(ev)
	} else {
		ln.out[o] = append(ln.out[o], ev)
	}
}

// fail records the lane's first error; the run loop ends the run with it.
func (ln *lane) fail(err error) {
	if ln.err == nil {
		ln.err = err
	}
}

// dispatch processes one popped event. Its time is never below ln.now:
// the queue refuses pushes below the open tick.
func (ln *lane) dispatch(ev event) {
	ln.now = ev.time
	ln.cur = ev.node
	ln.curKey = ev.key()
	switch ev.kind {
	case evCrash:
		ln.handleCrash(ev)
	case evDetect:
		ln.handleDetect(ev)
	case evDeliver:
		ln.handleDeliver(ev)
	case evSubscribe:
		ln.handleSubscribe(ev)
	}
}

// emit records a trace event: direct lanes append to the run's trace and
// evaluate crash triggers against it, shard lanes buffer it for the barrier
// merge. Callers count the event in ln.stats first and call emit only when
// the run is tracing. It stamps e's time in place; e is not retained.
func (ln *lane) emit(e *trace.Event) {
	e.Time = ln.now
	if !ln.direct {
		ln.buf = append(ln.buf, pendingTrace{key: ln.curKey, ev: *e})
		return
	}
	r := ln.r
	r.record(e)
	for i := range r.triggers {
		if !r.fired[i] && r.triggers[i].When(*e) {
			r.fired[i] = true
			t := r.triggers[i]
			ti := r.g.Index(t.Node)
			if t.Payload != nil {
				view, round := payloadTraceView(t.Payload)
				ln.schedule(event{time: ln.now + t.Delay, kind: evDeliver,
					node: ti, peer: ti, view: view, round: int32(round),
					bytes: int32(t.Payload.WireSize()), payload: t.Payload})
			} else {
				ln.schedule(event{time: ln.now + t.Delay, kind: evCrash, node: ti})
			}
		}
	}
}

func (ln *lane) handleCrash(ev event) {
	if ln.crashed.Has(ev.node) {
		return
	}
	ln.crashed.Set(ev.node)
	r := ln.r
	id := r.g.ID(ev.node)
	ln.stats.Crashes++
	ln.stats.EndTime = ln.now
	if r.tracing {
		ln.emit(&trace.Event{Kind: trace.KindCrash, Node: id})
	}
	// Strong completeness: notify every subscriber (unless it crashes
	// first, in which case its detect event is dropped on delivery), in
	// ascending-index = sorted-NodeID order.
	for _, p := range r.subs[ev.node] {
		lat := r.cfg.FDLatency.draw(keyedRand(r.fdSeed, p, ev.node, ln.now, 0))
		ln.schedule(event{time: ln.now + lat, kind: evDetect, node: p, peer: ev.node})
	}
}

func (ln *lane) handleDetect(ev event) {
	if ln.crashed.Has(ev.node) {
		return // the subscriber itself crashed; nothing to notify
	}
	r := ln.r
	id, peer := r.g.ID(ev.node), r.g.ID(ev.peer)
	ln.stats.Detections++
	ln.stats.EndTime = ln.now
	if r.tracing {
		ln.emit(&trace.Event{Kind: trace.KindDetect, Node: id, Peer: peer})
	}
	eff := r.automata[ev.node].OnCrash(peer)
	ln.applyEffects(ev.node, id, &eff)
}

func (ln *lane) handleDeliver(ev event) {
	r := ln.r
	ln.stats.EndTime = ln.now
	if ln.crashed.Has(ev.node) {
		ln.stats.Drops++
		if r.tracing {
			ln.emit(&trace.Event{Kind: trace.KindDrop, Node: r.g.ID(ev.node),
				Peer: r.g.ID(ev.peer), Bytes: int(ev.bytes)})
		}
		return
	}
	id, peer := r.g.ID(ev.node), r.g.ID(ev.peer)
	ln.stats.Deliveries++
	ln.participants.Set(ev.node)
	if int(ev.round) > ln.stats.MaxRound {
		ln.stats.MaxRound = int(ev.round)
	}
	if r.tracing {
		ln.emit(&trace.Event{Kind: trace.KindDeliver, Node: id, Peer: peer,
			View: ev.view, Round: int(ev.round), Bytes: int(ev.bytes)})
	}
	eff := r.automata[ev.node].OnMessage(peer, ev.payload)
	ln.applyEffects(ev.node, id, &eff)
}

// handleSubscribe registers ev.peer for 〈crash | ev.node〉, in the
// monitored node's shard. Idempotent; if the target already crashed the
// notification is drawn and scheduled here (subscribe-after-crash,
// required by line 7 of Algorithm 1).
func (ln *lane) handleSubscribe(ev event) {
	r := ln.r
	if !r.addSub(ev.node, ev.peer) {
		return
	}
	if ln.crashed.Has(ev.node) {
		lat := r.cfg.FDLatency.draw(keyedRand(r.fdSeed, ev.peer, ev.node, ln.now, 0))
		ln.schedule(event{time: ln.now + lat, kind: evDetect, node: ev.peer, peer: ev.node})
	}
}

// applyEffects realises an automaton's effects: subscriptions first, then
// sends (scheduled on the FIFO channels), then trace annotations and the
// decision. eff is a pointer only to spare a copy of the struct per event.
func (ln *lane) applyEffects(idx int32, id graph.NodeID, eff *proto.Effects) {
	ln.cur = idx
	for _, q := range eff.Monitor {
		ln.subscribe(idx, q)
	}
	tracing := ln.r.tracing
	ln.stats.Proposals += len(eff.Proposed)
	ln.stats.Rejections += len(eff.Rejected)
	ln.stats.Resets += eff.Resets
	if len(eff.Proposed)+len(eff.Rejected)+eff.Resets > 0 || eff.Decision != nil {
		ln.stats.EndTime = ln.now
	}
	if tracing {
		for _, v := range eff.Proposed {
			ln.emit(&trace.Event{Kind: trace.KindPropose, Node: id, View: v.Key()})
		}
		for _, v := range eff.Rejected {
			ln.emit(&trace.Event{Kind: trace.KindReject, Node: id, View: v.Key()})
		}
		for i := 0; i < eff.Resets; i++ {
			ln.emit(&trace.Event{Kind: trace.KindReset, Node: id})
		}
	}
	for _, send := range eff.Sends {
		ln.send(idx, id, send)
	}
	if eff.Decision != nil {
		ln.stats.Decisions++
		ln.stats.DecideTime = ln.now
		if tracing {
			ln.emit(&trace.Event{Kind: trace.KindDecide, Node: id,
				View: eff.Decision.View.Key(), Value: string(eff.Decision.Value)})
		}
	}
}

// subscribe registers p for 〈crash | qi〉. During 〈init〉 the subscription
// takes effect immediately (nothing has crashed yet); during the run it
// becomes an evSubscribe kernel event processed in qi's shard one
// lookahead later, keeping all subscription state shard-local.
func (ln *lane) subscribe(p, qi int32) {
	r := ln.r
	if r.initPhase {
		r.addSub(qi, p)
		return
	}
	ln.schedule(event{time: ln.now + r.lookahead, kind: evSubscribe, node: qi, peer: p})
}

// addSub adds p to q's subscribers and reports whether it was not one
// yet. A row starts with room for q's neighbours, who subscribe to it
// when they start.
func (r *Runner) addSub(q, p int32) bool {
	row := r.subs[q]
	j, found := slices.BinarySearch(row, p)
	if found {
		return false
	}
	if cap(row) == 0 {
		row = make([]int32, 0, max(r.g.DegreeOf(q), 1))
	}
	r.subs[q] = slices.Insert(row, j, p)
	return true
}

// send schedules one delivery per recipient, preserving per-channel FIFO:
// a message may never overtake an earlier one on the same (from, to)
// channel. The payload's trace annotations (view, round, wire size) are
// computed here, once per multicast, and carried on the queued events.
func (ln *lane) send(from int32, fromID graph.NodeID, s proto.Send) {
	r := ln.r
	size := int32(s.Payload.WireSize())
	view, round := payloadTraceView(s.Payload)
	if r.floors[from] == nil {
		r.floors[from] = make([]chanFloor, 0, len(s.To))
	}
	cursor := 0
	for _, toIdx := range s.To {
		if toIdx == from {
			continue // sender's own copy is self-delivered by the automaton
		}
		if uint(toIdx) >= uint(r.g.Len()) {
			// A send to an index outside the graph is a programmer error in
			// the automaton under test; fail loudly rather than with a bare
			// index panic deep in the bookkeeping.
			panic(fmt.Sprintf("sim: %s sends to node index %d, outside the graph's %d nodes",
				fromID, toIdx, r.g.Len()))
		}
		to := r.g.ID(toIdx)
		// One nonce per transmission, shared by the latency draw and the
		// link-fault verdict: both are pure functions of (seed, from, to,
		// sendTime, nonce), so neither perturbs the other and neither
		// depends on what other channels drew first.
		nonce := r.chanNonce[from]
		r.chanNonce[from]++
		lat := r.cfg.NetLatency.draw(keyedRand(r.netSeed, from, toIdx, ln.now, nonce))
		var verdict netem.Verdict
		if r.cfg.Net != nil {
			verdict = r.cfg.Net.Adjudicate(from, toIdx, ln.now, nonce)
		}
		ln.stats.Messages++
		ln.stats.Bytes += int(size)
		ln.stats.EndTime = ln.now
		ln.participants.Set(from)
		if round > ln.stats.MaxRound {
			ln.stats.MaxRound = round
		}
		if r.tracing {
			ln.emit(&trace.Event{Kind: trace.KindSend, Node: fromID, Peer: to,
				View: view, Round: round, Bytes: int(size)})
		}
		if verdict.Drop {
			// Raw-loss mode lost the message on the wire: trace the drop
			// at send time and leave the FIFO floor untouched (nothing
			// will be delivered on the channel for this send).
			ln.stats.Drops++
			if r.tracing {
				ln.emit(&trace.Event{Kind: trace.KindDrop, Node: to, Peer: fromID,
					Bytes: int(size)})
			}
			continue
		}
		at := r.floors.fifo(from, toIdx, ln.now+lat+verdict.ExtraDelay, &cursor)
		ln.schedule(event{time: at, kind: evDeliver, node: toIdx, peer: from,
			view: view, round: int32(round), bytes: size, payload: s.Payload})
		if verdict.Duplicate {
			// The network duplicated the copy: a second delivery on the
			// same channel, behind the original (same floor), with no
			// matching send — visible to conservation checks by design.
			ln.schedule(event{time: at, kind: evDeliver, node: toIdx, peer: from,
				view: view, round: int32(round), bytes: size, payload: s.Payload})
		}
	}
}

// SortedDecisions returns the run's decisions as a deterministic slice of
// (node, decision) pairs.
func (res *Result) SortedDecisions() []struct {
	Node     graph.NodeID
	Decision *proto.Decision
} {
	ids := make([]graph.NodeID, 0, len(res.Decisions))
	for id := range res.Decisions {
		ids = append(ids, id)
	}
	graph.SortIDs(ids)
	out := make([]struct {
		Node     graph.NodeID
		Decision *proto.Decision
	}, len(ids))
	for i, id := range ids {
		out[i].Node = id
		out[i].Decision = res.Decisions[id]
	}
	return out
}
