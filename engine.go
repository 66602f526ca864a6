package cliffedge

import (
	"context"

	"cliffedge/internal/graph"
	"cliffedge/internal/livenet"
	"cliffedge/internal/netem"
	"cliffedge/internal/predicate"
	"cliffedge/internal/sim"
)

// Engine executes a fault Plan against a Cluster. Two implementations
// ship with the library — Sim (deterministic discrete-event simulation)
// and Live (one goroutine per node on the Go scheduler) — and the
// interface is the extension point for future backends (sharded,
// distributed, accelerated). Engines are stateless values; all run state
// lives inside a single Run call.
type Engine interface {
	Run(ctx context.Context, c *Cluster, plan *Plan) (*Result, error)
}

// Sim returns the deterministic discrete-event engine: virtual time,
// seeded latencies, bit-for-bit reproducible traces (network-condition
// models included — verdicts are pure functions of the seed). OnEvent
// plan steps are supported.
func Sim() Engine { return simEngine{} }

// Live returns the goroutine-per-node engine: real concurrency, unbounded
// FIFO mailboxes, scheduling decided by the Go runtime. Timed plan steps
// become quiescence-separated waves in ascending cursor order; OnEvent
// steps are rejected. Outcomes are scheduler-dependent but always satisfy
// CD1–CD7 (the safety subset when a raw-loss network model is attached).
func Live() Engine { return liveEngine{} }

type simEngine struct{}

func (simEngine) Run(ctx context.Context, c *Cluster, plan *Plan) (*Result, error) {
	if err := plan.validate(c.topo); err != nil {
		return nil, err
	}
	net, err := c.bindNet(plan)
	if err != nil {
		return nil, err
	}
	crashes, triggers, injections := plan.compileSim()
	online, observer, bw := c.instrument()
	var runner *sim.Runner
	if c.rc != nil {
		runner = &c.rc.runner
	} else {
		runner = new(sim.Runner)
	}
	err = runner.Reset(sim.Config{
		Graph:         c.topo,
		Factory:       c.factory(plan.hasMarks()),
		Seed:          c.seed,
		NetLatency:    c.net,
		FDLatency:     c.fd,
		Net:           net,
		Crashes:       crashes,
		Triggers:      triggers,
		Injections:    injections,
		MaxEvents:     c.maxEvents,
		Shards:        kernelShards(c.kernShards),
		Observer:      observer,
		DiscardEvents: c.noBuffer,
	})
	if err != nil {
		return nil, err
	}
	res, err := runner.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if err := flushTrace(bw); err != nil {
		return nil, err
	}
	out := &Result{Stats: res.Stats, Crashed: res.Crashed, events: res.Events}
	attachNetStats(out, net)
	if len(res.Decisions) > 0 {
		out.Decisions = make([]Decision, 0, len(res.Decisions))
	}
	for _, d := range res.SortedDecisions() {
		out.Decisions = append(out.Decisions,
			Decision{Node: d.Node, View: d.Decision.View, Value: d.Decision.Value})
	}
	return finish(out, online, net.Unreliable())
}

// kernelShards maps the public shard convention (0 = auto, 1 =
// sequential) onto the kernel's (sim.AutoShards = auto, 0/1 =
// sequential).
func kernelShards(n int) int {
	if n == 0 {
		return sim.AutoShards
	}
	return n
}

type liveEngine struct{}

func (liveEngine) Run(ctx context.Context, c *Cluster, plan *Plan) (*Result, error) {
	if err := plan.validate(c.topo); err != nil {
		return nil, err
	}
	waves, err := plan.liveWaves()
	if err != nil {
		return nil, err
	}
	net, err := c.bindNet(plan)
	if err != nil {
		return nil, err
	}
	return runLiveWaves(ctx, c, net, plan.hasMarks(), waves, true, nil)
}

// runLiveWaves executes injection waves on a fresh live runtime. With
// barrier true, every wave lands only after the previous one went
// quiescent — the Live engine's contract. With barrier false the waves
// race into agreements still in flight (the campaign's mid-protocol
// regime), with pause called between consecutive waves to vary how far
// each agreement gets; quiescence is awaited only once, at the end. Both
// paths share the runtime setup, mark injection, network-model and
// checker plumbing, so racing injection cannot drift from the engine's
// behaviour.
func runLiveWaves(ctx context.Context, c *Cluster, net *netem.Net, marks bool, waves []liveWave, barrier bool, pause func(wave int)) (*Result, error) {
	online, observer, bw := c.instrument()
	rt := livenet.NewRuntime(c.topo, c.factory(marks),
		livenet.Options{Observer: observer, DiscardEvents: c.noBuffer, Net: net,
			TickEvery: c.liveTick})
	defer rt.Stop()
	if err := rt.WaitIdleContext(ctx, c.liveTimeout); err != nil {
		return nil, err
	}
	for i, w := range waves {
		rt.CrashAll(w.crash...)
		rt.InjectAll(predicate.Mark{}, w.mark...)
		switch {
		case barrier:
			if err := rt.WaitIdleContext(ctx, c.liveTimeout); err != nil {
				return nil, err
			}
		case pause != nil && i < len(waves)-1:
			pause(i)
		}
	}
	if !barrier {
		if err := rt.WaitIdleContext(ctx, c.liveTimeout); err != nil {
			return nil, err
		}
	}
	rt.Stop()
	if err := flushTrace(bw); err != nil {
		return nil, err
	}
	res := liveResult(rt)
	attachNetStats(res, net)
	return finish(res, online, net.Unreliable())
}

// attachNetStats snapshots a bound network model's counters onto the
// result (nil model: the run was unconditioned, Result.Net stays nil).
func attachNetStats(res *Result, net *netem.Net) {
	if net != nil {
		s := net.Stats()
		res.Net = &s
		net.PublishMetrics()
	}
}

// liveResult assembles the public Result of a stopped live runtime, with
// decisions sorted by node. Shared by the Live engine and the campaign
// runner's racing-injection path.
func liveResult(rt *livenet.Runtime) *Result {
	res := rt.Result()
	out := &Result{Stats: res.Stats, Crashed: res.Crashed, events: res.Events}
	ids := make([]NodeID, 0, len(res.Decisions))
	for id := range res.Decisions {
		ids = append(ids, id)
	}
	graph.SortIDs(ids)
	for _, id := range ids {
		d := res.Decisions[id]
		out.Decisions = append(out.Decisions,
			Decision{Node: id, View: d.View, Value: d.Value})
	}
	return out
}
