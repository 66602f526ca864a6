package sim

import (
	"context"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/netem"
	"cliffedge/internal/trace"
)

// TestNegativeConfigTimesRejected: scheduled crashes, injections and
// trigger delays in the past or past netem.MaxTick, and latency bands that
// break 1 ≤ Min ≤ Max ≤ netem.MaxTick, are config errors, not kernel
// behaviours. A crash at math.MaxInt64 used to panic in the event queue,
// and a band up to 2^62 made event times wrap below the open tick.
func TestNegativeConfigTimesRejected(t *testing.T) {
	g := graph.Grid(4, 4)
	always := func(trace.Event) bool { return true }
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative crash time", Config{Crashes: []CrashAt{{Time: -1, Node: graph.GridID(0, 0)}}}},
		{"crash at MaxInt64", Config{Crashes: []CrashAt{{Time: math.MaxInt64, Node: graph.GridID(1, 1)}}}},
		{"negative injection time", Config{Injections: []InjectAt{{Time: -7, Node: graph.GridID(0, 0), Payload: echoPayload{}}}}},
		{"injection past MaxTick", Config{Injections: []InjectAt{{Time: netem.MaxTick + 1, Node: graph.GridID(0, 0), Payload: echoPayload{}}}}},
		{"negative trigger delay", Config{Triggers: []Trigger{{Node: graph.GridID(0, 0), Delay: -2, When: always}}}},
		{"trigger delay MaxInt64", Config{Triggers: []Trigger{{Node: graph.GridID(0, 0), Delay: math.MaxInt64, When: always}}}},
		{"out-of-range shard count", Config{Shards: AutoShards - 1}},
		{"net band Min 0", Config{NetLatency: Uniform{Min: 0, Max: 5}}},
		{"fd band Min < 0", Config{FDLatency: Uniform{Min: -3, Max: 5}}},
		{"net band Max < Min", Config{NetLatency: Uniform{Min: 5, Max: 4}}},
		{"net band Max 2^62", Config{NetLatency: Uniform{Min: 1, Max: 1 << 62},
			Crashes: []CrashAt{{Time: 10, Node: graph.GridID(1, 1)}}}},
	} {
		cfg := tc.cfg
		cfg.Graph, cfg.Factory, cfg.Seed = g, coreFactory(g), 1
		if _, err := NewRunner(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := NewRunner(Config{Graph: g, Factory: coreFactory(g),
		NetLatency: Uniform{Min: 1, Max: netem.MaxTick}, FDLatency: Uniform{Min: 7, Max: 7},
		Crashes: []CrashAt{{Time: netem.MaxTick, Node: graph.GridID(1, 1)}}}); err != nil {
		t.Errorf("bounds at netem.MaxTick rejected: %v", err)
	}
}

// FuzzRunnerConfig: whatever bands, times, delays and shard count a
// Config carries, Reset or Run returns an error or a result and never
// panics. The first two seeds are the inputs that panicked in the event
// queue: a crash at math.MaxInt64, and a net band up to 2^62 that wrapped
// an event time below the open tick.
func FuzzRunnerConfig(f *testing.F) {
	f.Add(int64(1), int64(10), int64(1), int64(10), int64(math.MaxInt64), int64(5), int64(0), false, uint8(2), int64(1))
	f.Add(int64(1), int64(1<<62), int64(1), int64(10), int64(10), int64(5), int64(0), false, uint8(2), int64(1))
	f.Add(int64(1), int64(10), int64(1), int64(10), int64(10), int64(5), int64(math.MaxInt64), true, uint8(2), int64(3))
	f.Add(int64(2), int64(5), int64(3), int64(7), int64(10), int64(1<<48), int64(0), false, uint8(0), int64(4))
	f.Add(int64(0), int64(0), int64(0), int64(-1), int64(-5), int64(-1), int64(-1), true, uint8(4), int64(5))
	f.Fuzz(func(t *testing.T, netMin, netMax, fdMin, fdMax, crashAt, injectAt, delay int64, trigger bool, shardSel uint8, seed int64) {
		g := graph.Grid(4, 4)
		cfg := Config{
			Graph:      g,
			Factory:    coreFactory(g),
			Seed:       seed,
			NetLatency: Uniform{Min: netMin, Max: netMax},
			FDLatency:  Uniform{Min: fdMin, Max: fdMax},
			Crashes: []CrashAt{{Time: crashAt, Node: graph.GridID(1, 1)},
				{Time: 10, Node: graph.GridID(2, 2)}},
			Injections: []InjectAt{{Time: injectAt, Node: graph.GridID(3, 3), Payload: echoPayload{}}},
			Shards:     []int{AutoShards, 0, 1, 2, 8}[int(shardSel)%5],
			MaxEvents:  20_000,
		}
		if trigger {
			cfg.Triggers = []Trigger{{Node: graph.GridID(1, 2), Delay: delay,
				When: func(e trace.Event) bool { return e.Kind == trace.KindPropose }}}
		}
		r, err := NewRunner(cfg)
		if err != nil {
			return
		}
		if res, err := r.Run(); err == nil && res == nil {
			t.Fatal("Run returned neither a result nor an error")
		}
	})
}

// TestScheduleRefusesTimeOutsideHorizon: an event before the lane's
// current time or past maxTime ends the run with an error instead of
// reaching the queue, whose push below its open tick panics.
func TestScheduleRefusesTimeOutsideHorizon(t *testing.T) {
	g := graph.Grid(2, 2)
	for _, at := range []int64{99, maxTime + 1, math.MinInt64} {
		r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g)})
		if err != nil {
			t.Fatal(err)
		}
		ln := r.lane(0, 0, 1)
		ln.now = 100
		ln.schedule(event{time: at, kind: evCrash})
		if ln.err == nil || !strings.Contains(ln.err.Error(), "overflowed") || ln.queue.len() != 0 {
			t.Errorf("event at t=%d: err %v, %d queued", at, ln.err, ln.queue.len())
		}
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
