package sim

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/trace"
)

// negLatency is a misbehaving model: every draw is negative. The kernel
// must clamp draws at the call sites so virtual time stays monotone.
type negLatency struct{}

func (negLatency) Latency(_, _ graph.NodeID, _ *Rand) int64 { return -5 }

// TestNegativeLatencyKeepsTimeMonotone is the monotone-virtual-time
// invariant: with a model drawing below zero, popped event times (and so
// trace timestamps and EndTime) must still be non-decreasing — the clamp,
// not the FIFO-floor accident, contains the model.
func TestNegativeLatencyKeepsTimeMonotone(t *testing.T) {
	g := graph.Grid(4, 4)
	r, err := NewRunner(Config{
		Graph:      g,
		Factory:    coreFactory(g),
		Seed:       3,
		NetLatency: negLatency{},
		FDLatency:  negLatency{},
		Crashes:    []CrashAt{{Time: 10, Node: graph.GridID(1, 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("empty trace")
	}
	last := int64(0)
	for _, e := range res.Events {
		if e.Time < last {
			t.Fatalf("trace time ran backwards: event %d at t=%d after t=%d", e.Seq, e.Time, last)
		}
		last = e.Time
	}
	if res.EndTime < last {
		t.Fatalf("EndTime %d before last event at t=%d", res.EndTime, last)
	}
	if len(res.Decisions) == 0 {
		t.Error("no decisions despite clamped latencies")
	}
}

// TestNegativeConfigTimesRejected: scheduled crashes, injections and
// trigger delays in the past are config errors, not kernel behaviours.
func TestNegativeConfigTimesRejected(t *testing.T) {
	g := graph.Grid(2, 2)
	if _, err := NewRunner(Config{Graph: g, Factory: coreFactory(g),
		Crashes: []CrashAt{{Time: -1, Node: graph.GridID(0, 0)}}}); err == nil {
		t.Error("negative crash time accepted")
	}
	if _, err := NewRunner(Config{Graph: g, Factory: coreFactory(g),
		Injections: []InjectAt{{Time: -7, Node: graph.GridID(0, 0), Payload: echoPayload{}}}}); err == nil {
		t.Error("negative injection time accepted")
	}
	if _, err := NewRunner(Config{Graph: g, Factory: coreFactory(g),
		Triggers: []Trigger{{Node: graph.GridID(0, 0), Delay: -2,
			When: func(trace.Event) bool { return true }}}}); err == nil {
		t.Error("negative trigger delay accepted")
	}
	if _, err := NewRunner(Config{Graph: g, Factory: coreFactory(g),
		Shards: AutoShards - 1}); err == nil {
		t.Error("out-of-range shard count accepted")
	}
}

// TestRunnerNotReusable: a Runner is consumed by its run — a second
// Run/RunContext must fail loudly instead of interleaving stale state
// into a corrupt trace — until Reset arms it again. A failed Reset leaves
// it disarmed.
func TestRunnerNotReusable(t *testing.T) {
	g := graph.Grid(3, 3)
	cfg := Config{Graph: g, Factory: coreFactory(g), Seed: 2,
		Crashes: []CrashAt{{Time: 10, Node: graph.GridID(1, 1)}}}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	if err == nil {
		t.Fatal("second Run on a consumed Runner succeeded")
	}
	if !strings.Contains(err.Error(), "consumed") {
		t.Fatalf("unexpected reuse error: %v", err)
	}
	if err := r.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if err := r.Reset(Config{Graph: g}); err == nil {
		t.Fatal("Reset accepted a config without a factory")
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "consumed") {
		t.Fatalf("Run after a failed Reset: %v", err)
	}
	if _, err := new(Runner).Run(); err == nil {
		t.Fatal("a zero Runner ran")
	}
}

// TestResetMatchesFresh runs a sequence of different configurations —
// graph sizes up and down, sharded and sequential, triggers, injections,
// retained and discarded traces, and runs cut short by a cancelled
// context or an exhausted event budget — through one Runner with Reset,
// its nodes cut from one reused core.Slab, and requires each run to equal
// a new Runner's run of the same config with new nodes: trace, stats,
// decisions, crash set and end time. Whatever a run leaves in the reused
// queues, rows, bitsets and nodes must not reach the next.
func TestResetMatchesFresh(t *testing.T) {
	blockCrashes := func(at int64, ids ...graph.NodeID) []CrashAt {
		var out []CrashAt
		for _, id := range ids {
			out = append(out, CrashAt{Time: at, Node: id})
		}
		return out
	}
	grid := func(rows, cols int) *graph.Graph { return graph.Grid(rows, cols) }
	type step struct {
		name   string
		cfg    func() Config
		cancel bool // run under a cancelled context: must fail
	}
	g8, g4, g12 := grid(8, 8), grid(4, 4), grid(12, 12)
	ring := graph.Ring(40)
	steps := []step{
		{"grid8", func() Config {
			return Config{Graph: g8, Factory: coreFactory(g8), Seed: 9,
				Crashes: append(blockCrashes(10, graph.GridBlock(1, 1, 2)...), blockCrashes(30, graph.GridBlock(5, 5, 2)...)...)}
		}, false},
		{"grid4-sharded", func() Config {
			return Config{Graph: g4, Factory: coreFactory(g4), Seed: 3, Shards: 2,
				Crashes: blockCrashes(5, graph.GridID(1, 1), graph.GridID(2, 2))}
		}, false},
		{"grid12-cancelled", func() Config {
			return Config{Graph: g12, Factory: coreFactory(g12), Seed: 4,
				Crashes: blockCrashes(10, graph.GridBlock(4, 4, 3)...)}
		}, true},
		{"grid12-budget", func() Config {
			return Config{Graph: g12, Factory: coreFactory(g12), Seed: 4, MaxEvents: 300,
				Crashes: blockCrashes(10, graph.GridBlock(4, 4, 3)...)}
		}, false},
		{"ring-trigger-discard", func() Config {
			return Config{Graph: ring, Factory: coreFactory(ring), Seed: 5, DiscardEvents: true,
				Observer: func(trace.Event) {},
				Crashes:  blockCrashes(10, graph.RingID(3), graph.RingID(4)),
				Triggers: []Trigger{{Node: graph.RingID(5), Delay: 2,
					When: func(e trace.Event) bool { return e.Kind == trace.KindPropose }}}}
		}, false},
		{"grid8-auto-shards", func() Config {
			return Config{Graph: g8, Factory: coreFactory(g8), Seed: 11, Shards: AutoShards,
				Crashes: append(blockCrashes(10, graph.GridBlock(0, 0, 2)...), blockCrashes(10, graph.GridBlock(5, 5, 2)...)...)}
		}, false},
		{"grid4-after-abort", func() Config {
			return Config{Graph: g4, Factory: coreFactory(g4), Seed: 3,
				Crashes: blockCrashes(5, graph.GridID(1, 1), graph.GridID(2, 2))}
		}, false},
		{"grid12", func() Config {
			return Config{Graph: g12, Factory: coreFactory(g12), Seed: 4,
				Crashes: blockCrashes(10, graph.GridBlock(4, 4, 3)...)}
		}, false},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	run := func(r *Runner, s step) (*Result, error) {
		if s.cancel {
			return r.RunContext(cancelled)
		}
		return r.Run()
	}
	var reused Runner
	var nodes core.Slab
	for _, s := range steps {
		fresh, err := NewRunner(s.cfg())
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := run(fresh, s)
		cfg := s.cfg()
		cfg.Factory = nodes.Factory(core.Config{Graph: cfg.Graph})
		if err := reused.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		got, gotErr := run(&reused, s)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, fresh Runner %v", s.name, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !slices.Equal(got.Events, want.Events) {
			t.Fatalf("%s: trace of %d events differs from a fresh Runner's %d", s.name, len(got.Events), len(want.Events))
		}
		if got.Stats != want.Stats || got.EndTime != want.EndTime || !maps.Equal(got.Crashed, want.Crashed) {
			t.Fatalf("%s: stats %+v end %d, fresh Runner %+v end %d", s.name, got.Stats, got.EndTime, want.Stats, want.EndTime)
		}
		if len(got.Decisions) != len(want.Decisions) {
			t.Fatalf("%s: %d decisions, fresh Runner %d", s.name, len(got.Decisions), len(want.Decisions))
		}
		for id, d := range want.Decisions {
			if gd := got.Decisions[id]; gd == nil || gd.View.Key() != d.View.Key() || gd.Value != d.Value {
				t.Fatalf("%s: decision of %s differs from a fresh Runner's", s.name, id)
			}
		}
	}
}

// TestShardedMatchesSequential pins the tentpole contract at the kernel
// level: every shard setting yields the identical trace, stats, decisions
// and end time.
func TestShardedMatchesSequential(t *testing.T) {
	run := func(shards int) *Result {
		g := graph.Grid(8, 8)
		var crashes []CrashAt
		for _, n := range graph.GridBlock(1, 1, 2) {
			crashes = append(crashes, CrashAt{Time: 10, Node: n})
		}
		for _, n := range graph.GridBlock(5, 5, 2) {
			crashes = append(crashes, CrashAt{Time: 30, Node: n})
		}
		r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 9,
			Crashes: crashes, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, shards := range []int{2, 8, AutoShards} {
		got := run(shards)
		if len(got.Events) != len(ref.Events) {
			t.Fatalf("shards=%d: %d events, want %d",
				shards, len(got.Events), len(ref.Events))
		}
		for i := range ref.Events {
			if got.Events[i] != ref.Events[i] {
				t.Fatalf("shards=%d: event %d = %+v, want %+v",
					shards, i, got.Events[i], ref.Events[i])
			}
		}
		if got.Stats != ref.Stats {
			t.Errorf("shards=%d: stats %+v, want %+v", shards, got.Stats, ref.Stats)
		}
		if got.EndTime != ref.EndTime {
			t.Errorf("shards=%d: end time %d, want %d", shards, got.EndTime, ref.EndTime)
		}
		if len(got.Decisions) != len(ref.Decisions) {
			t.Errorf("shards=%d: %d decisions, want %d",
				shards, len(got.Decisions), len(ref.Decisions))
		}
		for id, want := range ref.Decisions {
			gotD := got.Decisions[id]
			if gotD == nil || gotD.View.Key() != want.View.Key() || gotD.Value != want.Value {
				t.Errorf("shards=%d: decision of %s diverged", shards, id)
			}
		}
		if len(got.Crashed) != len(ref.Crashed) {
			t.Errorf("shards=%d: crashed set diverged", shards)
		}
	}
}

// TestShardedLookaheadFallback: a model that declares no MinLatency (or a
// zero one) forces the kernel sequential — same results, no windows.
func TestShardedLookaheadFallback(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func(net LatencyModel, shards int) *Result {
		r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 4,
			NetLatency: net, Crashes: []CrashAt{{Time: 10, Node: graph.GridID(1, 1)}},
			Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// negLatency declares no MinLatency: shards must silently fall back.
	a := run(negLatency{}, 8)
	b := run(negLatency{}, 1)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("fallback diverged: %d vs %d events", len(a.Events), len(b.Events))
	}
	// Constant{0} declares MinLatency 0: same fallback.
	c := run(Constant{D: 0}, 8)
	d := run(Constant{D: 0}, 1)
	if len(c.Events) != len(d.Events) {
		t.Fatalf("zero-lookahead fallback diverged: %d vs %d events", len(c.Events), len(d.Events))
	}
}

// lyingLatency declares MinLatency 5 but draws 1 — the sharded kernel
// must detect the broken promise instead of silently diverging.
type lyingLatency struct{}

func (lyingLatency) Latency(_, _ graph.NodeID, _ *Rand) int64 { return 1 }
func (lyingLatency) MinLatency() int64                        { return 5 }

func TestShardedDetectsMinLatencyViolation(t *testing.T) {
	g := graph.Grid(4, 4)
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 5,
		NetLatency: lyingLatency{}, FDLatency: lyingLatency{},
		Crashes: []CrashAt{{Time: 10, Node: graph.GridID(1, 1)}},
		Shards:  4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "MinLatency") {
		t.Fatalf("expected a MinLatency-violation error, got %v", err)
	}
}
