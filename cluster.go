package cliffedge

import (
	"context"
	"fmt"
	"io"
	"time"

	"cliffedge/internal/check"
	"cliffedge/internal/core"
	"cliffedge/internal/predicate"
	"cliffedge/internal/proto"
	"cliffedge/internal/trace"
)

// Observer receives every trace event of a run as it happens, in sequence
// order. Observers are the streaming half of the API: paired with
// WithoutTraceBuffer they let arbitrarily large runs execute in memory
// bounded by the topology, not the trace. An observer runs on the engine's
// hot path (under the log lock in the live engine): keep it fast and never
// start another run from inside one.
type Observer func(Event)

// Cluster is an immutable description of a system under test: a topology
// plus protocol parameters, engine and instrumentation. Build one with
// New; execute fault Plans against it with Run. A Cluster holds no run
// state, so the same value can execute any number of plans, sequentially
// or concurrently.
type Cluster struct {
	topo        *Topology
	seed        int64
	net, fd     LatencyRange
	propose     func(Region) Value
	pick        func([]Value) Value
	checked     bool
	observers   []Observer
	noBuffer    bool
	engine      Engine
	liveTimeout time.Duration
	liveTick    time.Duration
	maxEvents   int
	kernShards  int
	netModel    *NetModel
	traceW      io.Writer
	// rc, set only by a campaign job (withRunContext), lends a sim run its
	// reusable runner and node slab.
	rc *runContext
}

// Option configures a Cluster at construction time.
type Option func(*Cluster) error

// New builds a Cluster over topo. Defaults: seed 0, both latency bands
// uniform in [1, 10], the deterministic simulator engine, trace buffering
// on, property checking off.
func New(topo *Topology, opts ...Option) (*Cluster, error) {
	if topo == nil {
		return nil, fmt.Errorf("cliffedge: topology is required")
	}
	c := &Cluster{
		topo:        topo,
		net:         LatencyRange{Min: 1, Max: 10},
		fd:          LatencyRange{Min: 1, Max: 10},
		liveTimeout: 30 * time.Second,
		kernShards:  1,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("cliffedge: nil Option")
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.engine == nil {
		c.engine = Sim()
	}
	return c, nil
}

// Run executes plan on the cluster's engine. A nil plan is the empty plan:
// the cluster simply runs to quiescence. Cancelling ctx (or exceeding its
// deadline) aborts the run with the context's error.
func (c *Cluster) Run(ctx context.Context, plan *Plan) (*Result, error) {
	if plan == nil {
		plan = NewPlan()
	}
	if c.checked && plan.hasMarks() {
		// The CD1–CD7 checker judges decided views against crash ground
		// truth reconstructed from the trace; marked nodes emit no crash
		// events (they stay alive and keep gossiping), so every clean
		// predicate run would be reported as a violation.
		return nil, fmt.Errorf("cliffedge: WithChecker supports crash plans only; remove the checker to run Mark steps")
	}
	return c.engine.Run(ctx, c, plan)
}

// WithSeed sets the seed driving all randomised latencies; same seed, same
// simulator run, bit for bit.
func WithSeed(seed int64) Option {
	return func(c *Cluster) error { c.seed = seed; return nil }
}

// WithNetLatency sets the message-delay band [min, max] in virtual ticks.
func WithNetLatency(min, max int64) Option {
	return func(c *Cluster) error {
		if min < 1 || max < min {
			return fmt.Errorf("cliffedge: invalid net latency band [%d, %d]", min, max)
		}
		c.net = LatencyRange{Min: min, Max: max}
		return nil
	}
}

// WithDetectLatency sets the failure-detection delay band [min, max].
func WithDetectLatency(min, max int64) Option {
	return func(c *Cluster) error {
		if min < 1 || max < min {
			return fmt.Errorf("cliffedge: invalid detect latency band [%d, %d]", min, max)
		}
		c.fd = LatencyRange{Min: min, Max: max}
		return nil
	}
}

// WithPropose sets the view→value proposal function (the paper's
// selectValueForView). The default derives a deterministic repair-plan
// label from the view.
func WithPropose(fn func(Region) Value) Option {
	return func(c *Cluster) error { c.propose = fn; return nil }
}

// WithPick sets the deterministic choice among accepted values (the
// paper's deterministicPick); it must be a pure function of the value
// multiset. The default is the lexicographic minimum.
func WithPick(fn func([]Value) Value) Option {
	return func(c *Cluster) error { c.pick = fn; return nil }
}

// WithChecker verifies the seven properties CD1–CD7 online, as the run's
// events stream by, and makes Run return an error describing every
// violation. The checker's memory is bounded by the topology and the
// decision count, so it composes with WithoutTraceBuffer. The properties
// are specified against crash ground truth, so a checked Run rejects
// plans containing Mark steps. When the run's network model is raw-loss
// (genuinely unreliable channels), the checker automatically judges only
// the safety subset CD1–CD3/CD5/CD6 — stalls and duplicated deliveries
// are the *point* of that mode, not violations.
func WithChecker() Option {
	return func(c *Cluster) error { c.checked = true; return nil }
}

// WithObserver streams every trace event of a run to fn as it happens.
// Repeating the option registers multiple observers; they run in
// registration order.
func WithObserver(fn Observer) Option {
	return func(c *Cluster) error {
		if fn == nil {
			return fmt.Errorf("cliffedge: nil Observer")
		}
		c.observers = append(c.observers, fn)
		return nil
	}
}

// WithoutTraceBuffer stops the run from retaining its event trace:
// Result.Events returns nil while Stats, observers and the online checker
// still see everything. This is how million-node runs stay in constant
// memory.
func WithoutTraceBuffer() Option {
	return func(c *Cluster) error { c.noBuffer = true; return nil }
}

// WithTraceWriter streams every event of the run to w in the binary trace
// format (see the trace package; convert with cliffedge-trace). This is
// the default on-disk sink: paired with WithoutTraceBuffer the full trace
// lands on disk while the run itself stays in constant memory. The stream
// is flushed when the run finishes; a write error fails the run. Both
// engines write the events in sequence order, with the Seq and Time
// stamps that observers and Result.Events see. The stream is buffered
// internally, so w needs no bufio.Writer of its own. The writer is owned
// by the run: do not share one writer between concurrent runs.
func WithTraceWriter(w io.Writer) Option {
	return func(c *Cluster) error {
		if w == nil {
			return fmt.Errorf("cliffedge: nil trace writer")
		}
		c.traceW = w
		return nil
	}
}

// WithEngine selects the execution backend; the default is Sim().
func WithEngine(e Engine) Option {
	return func(c *Cluster) error {
		if e == nil {
			return fmt.Errorf("cliffedge: nil Engine")
		}
		c.engine = e
		return nil
	}
}

// WithLiveTimeout bounds each quiescence wait of the live engine (default
// 30s). The simulator ignores it — bound simulator runs through ctx.
func WithLiveTimeout(d time.Duration) Option {
	return func(c *Cluster) error {
		if d <= 0 {
			return fmt.Errorf("cliffedge: non-positive live timeout %v", d)
		}
		c.liveTimeout = d
		return nil
	}
}

// WithLiveTick makes the live engine realise the network model's extra
// delays in wall time: a delivery the model delayed by d ticks sleeps
// d × tick in the receiving node's loop, in queue order, so per-link FIFO
// is preserved and the run's wall-clock timing takes the netem shape —
// jitter bands, retransmission backoff and outage heal waits become
// observable pauses instead of counters. The default (no tick) leaves
// timing entirely to the Go scheduler; the simulator, whose virtual clock
// already carries the delays, ignores the option. Only meaningful together
// with WithNetModel.
func WithLiveTick(tick time.Duration) Option {
	return func(c *Cluster) error {
		if tick <= 0 {
			return fmt.Errorf("cliffedge: non-positive live tick %v", tick)
		}
		c.liveTick = tick
		return nil
	}
}

// WithKernelShards sets the simulator kernel's intra-run parallelism: the
// event queue is partitioned into n sub-queues executed under a
// conservative time-window barrier whose lookahead is the minimum channel
// latency. The trace — and therefore every Result field, checker verdict
// and golden hash — is byte-identical at any shard count and any
// GOMAXPROCS; only wall-clock time changes. n = 1 (the default) is the
// classic sequential kernel; n = 0 picks shards automatically, one per
// connected crashed-region domain group (the paper's locality property:
// disjoint region closures generate causally independent event streams);
// n ≥ 2 stripes nodes over exactly n shards. Plans with OnEvent steps
// run sequentially regardless (their predicates inspect the globally
// ordered trace as it forms). The live engine ignores the option.
func WithKernelShards(n int) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("cliffedge: negative kernel shard count %d", n)
		}
		c.kernShards = n
		return nil
	}
}

// WithMaxEvents caps the simulator's kernel event budget (default 50
// million), turning livelocks into errors instead of hangs.
func WithMaxEvents(n int) Option {
	return func(c *Cluster) error {
		if n < 0 {
			return fmt.Errorf("cliffedge: negative event budget %d", n)
		}
		c.maxEvents = n
		return nil
	}
}

// factory instantiates the per-node automaton: the core crash protocol, or
// its predicate-detection wrapper when the plan marks nodes.
func (c *Cluster) factory(marks bool) proto.Factory {
	cfg := core.Config{Graph: c.topo, Propose: c.propose, Pick: c.pick}
	nodes := core.Factory
	if c.rc != nil {
		nodes = c.rc.nodes.Factory
	}
	if marks {
		return predicate.Wrap(c.topo, nodes(cfg))
	}
	return nodes(cfg)
}

// instrument assembles the run's streaming sink: the binary trace writer
// (WithTraceWriter), the online CD1–CD7 checker (when enabled) and the
// user observers, in that order, all fed in sequence order on either
// engine. The observer is nil when nothing listens; a lone user observer
// is returned as the sink itself, so each event reaches it without a
// fan-out call in between (every untraced campaign job runs that way).
// The engine hands the writer to flushTrace once the run is over.
func (c *Cluster) instrument() (*check.Online, func(trace.Event), *trace.BinaryWriter) {
	var online *check.Online
	if c.checked {
		online = check.NewOnline(c.topo)
	}
	var observer func(trace.Event)
	switch {
	case online == nil && len(c.observers) == 0:
	case online == nil && len(c.observers) == 1:
		observer = c.observers[0]
	default:
		observers := c.observers
		observer = func(e trace.Event) {
			if online != nil {
				online.Observe(e)
			}
			for _, fn := range observers {
				fn(e)
			}
		}
	}
	if c.traceW == nil {
		return online, observer, nil
	}
	bw := trace.NewBinaryWriter(c.traceW)
	next := observer
	return online, func(e trace.Event) {
		bw.Write(e) // the first error is sticky; flushTrace surfaces it
		if next != nil {
			next(e)
		}
	}, bw
}

// flushTrace drains the run's binary trace writer, if any, after the run
// ended. A write error fails the run.
func flushTrace(bw *trace.BinaryWriter) error {
	if bw == nil {
		return nil
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("cliffedge: trace sink: %w", err)
	}
	return nil
}

// finish applies the online checker's verdict to a completed run. On
// violation the result is still returned alongside the error, so callers
// can inspect what went wrong. With safetyOnly (the run used a raw-loss
// network model, which legitimately stalls and duplicates) only the
// safety subset CD1–CD3/CD5/CD6 is judged.
func finish(res *Result, online *check.Online, safetyOnly bool) (*Result, error) {
	if online == nil {
		return res, nil
	}
	var rep check.Report
	if safetyOnly {
		rep = online.SafetyReport()
	} else {
		rep = online.Report()
	}
	if !rep.Ok() {
		return res, fmt.Errorf("cliffedge: property violations:\n%s", rep)
	}
	return res, nil
}
