package livenet

import (
	"context"
	"testing"
	"time"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/netem"
	"cliffedge/internal/proto"
	"cliffedge/internal/trace"
)

func netemFactory(g *graph.Graph) proto.Factory {
	return func(id graph.NodeID) proto.Automaton {
		return core.New(core.Config{ID: id, Graph: g})
	}
}

// runNetemLive executes a single-wave 6×6 cascade on the live runtime
// under the given model (nil = perfect network).
func runNetemLive(t *testing.T, model *netem.Model, seed int64) *Result {
	t.Helper()
	g := graph.Grid(6, 6)
	var opts Options
	if model != nil {
		net, err := model.Bind(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		opts.Net = net
	}
	rt := NewRuntime(g, netemFactory(g), opts)
	defer rt.Stop()
	if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	rt.CrashAll(graph.CenterBlock(6, 6, 2)...)
	if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	return rt.Result()
}

// TestNetemLiveRetransmit: retransmission mode on the live runtime keeps
// the reliable-channel contract — every border node still decides, the
// decisions equal the perfect-network outcome (single quiescent wave ⇒
// interleaving-independent), and the trace ledger conserves.
func TestNetemLiveRetransmit(t *testing.T) {
	want := runNetemLive(t, nil, 1)
	model := &netem.Model{
		Default: netem.Profile{Loss: 0.4, JitterMax: 30, SpikeProb: 0.1, SpikeMin: 50, SpikeMax: 200},
	}
	got := runNetemLive(t, model, 1)
	if len(got.Decisions) == 0 {
		t.Fatal("nobody decided under retransmission-mode degradation")
	}
	if len(got.Decisions) != len(want.Decisions) {
		t.Fatalf("decision counts diverge: %d (netem) vs %d (perfect)",
			len(got.Decisions), len(want.Decisions))
	}
	for n, d := range want.Decisions {
		gd := got.Decisions[n]
		if gd == nil || gd.View.Key() != d.View.Key() || gd.Value != d.Value {
			t.Fatalf("node %s: decision diverged under retransmission", n)
		}
	}
	if got.Stats.Messages != got.Stats.Deliveries+got.Stats.Drops {
		t.Fatalf("conservation broken: %d sends, %d deliveries, %d drops",
			got.Stats.Messages, got.Stats.Deliveries, got.Stats.Drops)
	}
}

// TestNetemLiveRawLoss: raw loss on the live runtime traces every lost
// message as a network drop, and the counters account for all of them.
func TestNetemLiveRawLoss(t *testing.T) {
	g := graph.Grid(6, 6)
	model := &netem.Model{Mode: netem.RawLoss, Default: netem.Profile{Loss: 0.2}}
	net, err := model.Bind(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(g, netemFactory(g), Options{Net: net})
	defer rt.Stop()
	if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	rt.CrashAll(graph.CenterBlock(6, 6, 2)...)
	if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	res := rt.Result()
	if res.Stats.Messages != res.Stats.Deliveries+res.Stats.Drops {
		t.Fatalf("pure-loss ledger should conserve: %d sends, %d deliveries, %d drops",
			res.Stats.Messages, res.Stats.Deliveries, res.Stats.Drops)
	}
	s := net.Stats()
	if s.Sent == 0 {
		t.Fatal("netem adjudicated nothing")
	}
	if s.Dropped == 0 {
		t.Fatal("loss 0.2 dropped nothing")
	}
	if s.Delivered+s.Dropped != s.Sent {
		t.Fatalf("counters inconsistent: %+v", s)
	}
}

// TestNetemLiveDuplicates: duplicate verdicts deliver a second copy — the
// delivery count exceeds the send count — and the protocol's decisions
// stay idempotent under them.
func TestNetemLiveDuplicates(t *testing.T) {
	model := &netem.Model{Mode: netem.RawLoss, Default: netem.Profile{DupProb: 0.5}}
	res := runNetemLive(t, model, 3)
	if res.Stats.Deliveries+res.Stats.Drops <= res.Stats.Messages {
		t.Fatalf("dup 0.5 delivered no extra copies: %d sends, %d deliveries, %d drops",
			res.Stats.Messages, res.Stats.Deliveries, res.Stats.Drops)
	}
	if len(res.Decisions) == 0 {
		t.Fatal("nobody decided under duplication")
	}
	// Every decide event must be unique per node (CD1 under duplicates).
	decided := map[graph.NodeID]int{}
	for _, e := range res.Events {
		if e.Kind == trace.KindDecide {
			decided[e.Node]++
		}
	}
	for n, c := range decided {
		if c > 1 {
			t.Fatalf("node %s decided %d times under duplication", n, c)
		}
	}
}

// TestTickEveryRealisesDelay: with Options.TickEvery set, the link-fault
// model's ExtraDelay verdicts become wall-clock sleeps — a run whose every
// delivery is jitter-delayed by 20 ticks at 1ms/tick must take at least
// one full delay longer than zero, while still reaching the same
// quiescent outcome (sleeps happen in queue order, so FIFO and hence the
// single-wave decision set are untouched).
func TestTickEveryRealisesDelay(t *testing.T) {
	g := graph.Grid(3, 3)
	model := &netem.Model{Default: netem.Profile{JitterMin: 20, JitterMax: 20}}
	run := func(tick time.Duration) (*Result, time.Duration) {
		net, err := model.Bind(g, 7)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(g, netemFactory(g), Options{Net: net, TickEvery: tick})
		defer rt.Stop()
		start := time.Now()
		if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
			t.Fatal(err)
		}
		rt.CrashAll(graph.CenterBlock(3, 3, 1)...)
		if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		rt.Stop()
		return rt.Result(), elapsed
	}
	plain, _ := run(0)
	ticked, elapsed := run(time.Millisecond)
	if len(ticked.Decisions) == 0 {
		t.Fatal("nobody decided under realised delays")
	}
	if len(ticked.Decisions) != len(plain.Decisions) {
		t.Fatalf("realised delays changed the outcome: %d vs %d decisions",
			len(ticked.Decisions), len(plain.Decisions))
	}
	// Every delivery slept 20 ticks × 1ms; even a single one bounds the
	// run from below. (Sleeps only ever overshoot, so this cannot flake
	// on a slow box.)
	if min := 20 * time.Millisecond; elapsed < min {
		t.Fatalf("elapsed %v with TickEvery, want ≥ %v", elapsed, min)
	}
}
