package cliffedge

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestNewOptionDefaulting pins the documented defaults and each option's
// effect on the built Cluster.
func TestNewOptionDefaulting(t *testing.T) {
	topo := Grid(3, 3)
	cases := []struct {
		name string
		opts []Option
		want func(*Cluster) string // returns "" when satisfied
	}{
		{"defaults", nil, func(c *Cluster) string {
			switch {
			case c.seed != 0:
				return "seed should default to 0"
			case c.net != (LatencyRange{Min: 1, Max: 10}):
				return "net latency should default to [1, 10]"
			case c.fd != (LatencyRange{Min: 1, Max: 10}):
				return "detect latency should default to [1, 10]"
			case c.checked || c.noBuffer || len(c.observers) != 0:
				return "instrumentation should default off"
			case c.engine != Sim():
				return "engine should default to Sim"
			case c.liveTimeout != 30*time.Second:
				return "live timeout should default to 30s"
			case c.maxEvents != 0:
				return "event budget should default to the simulator's"
			case c.kernShards != 1:
				return "kernel shards should default to 1 (sequential)"
			}
			return ""
		}},
		{"seed", []Option{WithSeed(42)}, func(c *Cluster) string {
			if c.seed != 42 {
				return "seed not applied"
			}
			return ""
		}},
		{"latencies", []Option{WithNetLatency(2, 5), WithDetectLatency(3, 7)}, func(c *Cluster) string {
			if c.net != (LatencyRange{Min: 2, Max: 5}) || c.fd != (LatencyRange{Min: 3, Max: 7}) {
				return "latency bands not applied"
			}
			return ""
		}},
		{"engine", []Option{WithEngine(Live())}, func(c *Cluster) string {
			if c.engine != Live() {
				return "engine not applied"
			}
			return ""
		}},
		{"instrumentation", []Option{WithChecker(), WithoutTraceBuffer(),
			WithObserver(func(Event) {}), WithObserver(func(Event) {})}, func(c *Cluster) string {
			if !c.checked || !c.noBuffer || len(c.observers) != 2 {
				return "instrumentation options not applied"
			}
			return ""
		}},
		{"limits", []Option{WithLiveTimeout(time.Minute), WithMaxEvents(1000)}, func(c *Cluster) string {
			if c.liveTimeout != time.Minute || c.maxEvents != 1000 {
				return "limits not applied"
			}
			return ""
		}},
		{"kernel shards", []Option{WithKernelShards(8)}, func(c *Cluster) string {
			if c.kernShards != 8 {
				return "kernel shard count not applied"
			}
			return ""
		}},
		{"kernel shards auto", []Option{WithKernelShards(0)}, func(c *Cluster) string {
			if c.kernShards != 0 {
				return "auto kernel shards not applied"
			}
			return ""
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(topo, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if msg := tc.want(c); msg != "" {
				t.Error(msg)
			}
		})
	}
}

func TestNewOptionValidation(t *testing.T) {
	topo := Grid(3, 3)
	cases := []struct {
		name string
		opts []Option
	}{
		{"net min zero", []Option{WithNetLatency(0, 5)}},
		{"net inverted", []Option{WithNetLatency(5, 2)}},
		{"detect inverted", []Option{WithDetectLatency(9, 1)}},
		{"nil observer", []Option{WithObserver(nil)}},
		{"nil engine", []Option{WithEngine(nil)}},
		{"nil option", []Option{nil}},
		{"negative kernel shards", []Option{WithKernelShards(-1)}},
		{"zero timeout", []Option{WithLiveTimeout(0)}},
		{"negative budget", []Option{WithMaxEvents(-1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(topo, tc.opts...); err == nil {
				t.Error("want construction error")
			}
		})
	}
	if _, err := New(nil); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestSimEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := New(Grid(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(ctx, NewPlan().At(10).Crash(CenterBlock(8, 8, 2)...))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestLiveEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := New(Grid(8, 8), WithEngine(Live()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(ctx, NewPlan().At(10).Crash(CenterBlock(8, 8, 2)...))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestStreamingWithoutTraceBuffer is the scalability acceptance scenario:
// a 64×64 grid runs with observers and the online checker but no trace
// buffer, and must stream exactly the events the buffered run retains,
// reach the same decisions, and hold back no event slice.
func TestStreamingWithoutTraceBuffer(t *testing.T) {
	topo := Grid(64, 64)
	block := CenterBlock(64, 64, 4)
	plan := NewPlan().At(10).Crash(block...)

	buffered, err := New(topo, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buffered.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	var streamed []Event
	streaming, err := New(topo,
		WithSeed(9),
		WithChecker(),
		WithoutTraceBuffer(),
		WithObserver(func(e Event) { streamed = append(streamed, e) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := streaming.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	if got := res.Events(); got != nil {
		t.Fatalf("WithoutTraceBuffer retained %d events", len(got))
	}
	refEvents := ref.Events()
	if len(streamed) != len(refEvents) {
		t.Fatalf("streamed %d events, buffered run had %d", len(streamed), len(refEvents))
	}
	for i := range streamed {
		if streamed[i] != refEvents[i] {
			t.Fatalf("streamed event %d differs: %v vs %v", i, streamed[i], refEvents[i])
		}
	}
	if len(res.Decisions) != len(ref.Decisions) {
		t.Fatalf("decisions differ: %d vs %d", len(res.Decisions), len(ref.Decisions))
	}
	for i := range res.Decisions {
		got, want := res.Decisions[i], ref.Decisions[i]
		if got.Node != want.Node || got.Value != want.Value || !got.View.Equal(want.View) {
			t.Fatalf("decision %d differs: %v vs %v", i, got, want)
		}
	}
	if res.Stats != ref.Stats {
		t.Errorf("stats differ under streaming: %+v vs %+v", res.Stats, ref.Stats)
	}
}

func TestPlanValidation(t *testing.T) {
	c, err := New(Grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), NewPlan().At(1).Crash("ghost")); err == nil {
		t.Error("unknown crash node accepted")
	}
	if _, err := c.Run(context.Background(), NewPlan().At(1).Mark("ghost")); err == nil {
		t.Error("unknown mark node accepted")
	}
	live, err := New(Grid(3, 3), WithEngine(Live()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = live.Run(context.Background(),
		NewPlan().OnEvent(func(Event) bool { return true }, 1).Crash(GridID(0, 0)))
	if err == nil || !strings.Contains(err.Error(), "OnEvent") {
		t.Errorf("live engine should reject OnEvent steps, got %v", err)
	}
}

// TestHugeTimesReturnErrors: plan times and latency bands past what a run
// can represent come back from Run as errors. Each case used to panic in
// the simulator's event queue: a crash at math.MaxInt64 popped an empty
// tick, and a band up to 2^62 or an OnEvent delay of math.MaxInt64 made an
// event time wrap below the open tick.
func TestHugeTimesReturnErrors(t *testing.T) {
	crash := GridID(1, 1)
	propose := func(e Event) bool { return e.Kind == EventPropose }
	for _, tc := range []struct {
		name string
		opts []Option
		plan *Plan
	}{
		{"crash at MaxInt64", nil, NewPlan().At(math.MaxInt64).Crash(crash)},
		{"net band up to 2^62", []Option{WithNetLatency(1, 1<<62), WithSeed(1)}, NewPlan().At(10).Crash(crash)},
		{"OnEvent delay MaxInt64", nil,
			NewPlan().At(10).Crash(crash).OnEvent(propose, math.MaxInt64).Crash(GridID(1, 2))},
	} {
		c, err := New(Grid(4, 4), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Run panicked: %v", tc.name, p)
				}
			}()
			if _, err := c.Run(context.Background(), tc.plan); err == nil {
				t.Errorf("%s: Run returned no error", tc.name)
			}
		}()
	}
}

// TestLiveEngineMarks runs the stable-predicate extension through the live
// engine — a capability the legacy one-shot API never exposed.
func TestLiveEngineMarks(t *testing.T) {
	topo := Line(5)
	c, err := New(topo, WithEngine(Live()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(),
		NewPlan().At(1).Mark(RingID(2), RingID(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("want 2 border decisions, got %d", len(res.Decisions))
	}
	for _, d := range res.Decisions {
		if d.View.Len() != 2 {
			t.Errorf("%s decided %s, want the full marked pair", d.Node, d.View)
		}
	}
}

// TestOnEventMark drives an event-conditioned mark — a fault shape no
// legacy entry point could express: a node is marked only after the first
// decision elsewhere in the system.
func TestOnEventMark(t *testing.T) {
	topo := Line(7)
	c, err := New(topo, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), NewPlan().
		At(10).Mark(RingID(0)).
		OnEvent(func(e Event) bool { return e.Kind == EventDecide }, 5).Mark(RingID(4)))
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[NodeID]Decision{}
	for _, d := range res.Decisions {
		byNode[d.Node] = d
	}
	if d, ok := byNode[RingID(1)]; !ok || d.View.Len() != 1 {
		t.Fatalf("r1 should decide on the marked {r0}, got %v", res.Decisions)
	}
	if d, ok := byNode[RingID(3)]; !ok || d.View.Len() != 1 {
		t.Fatalf("r3 should decide on the conditioned mark of r4, got %v", res.Decisions)
	}
	if d, ok := byNode[RingID(5)]; !ok || d.View.Len() != 1 {
		t.Fatalf("r5 should decide on the conditioned mark of r4, got %v", res.Decisions)
	}
}

// TestCheckerRejectsMarkPlans: the CD1–CD7 properties are specified
// against crash ground truth, so a checked run must refuse Mark steps
// instead of reporting bogus violations on a clean predicate run.
func TestCheckerRejectsMarkPlans(t *testing.T) {
	c, err := New(Grid(7, 7), WithSeed(5), WithChecker())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), NewPlan().At(10).Mark(GridBlock(2, 2, 2)...))
	if err == nil || !strings.Contains(err.Error(), "crash plans only") {
		t.Fatalf("want checker/mark rejection, got %v", err)
	}
}

func TestWithMaxEvents(t *testing.T) {
	c, err := New(Grid(6, 6), WithMaxEvents(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), NewPlan().At(1).Crash(GridBlock(1, 1, 2)...))
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("want event-budget error, got %v", err)
	}
}

// TestRunsLeaveNothingBehind: what a run shares between its nodes — the
// view-key table above all — is reachable from the run alone. 300
// consecutive Cluster.Runs over one long-lived topology, each crashing a
// block somewhere else (so each interns keys no run before it built), must
// leave the heap where the first 50 left it: state that outlived its run,
// in a package-level table or hung off the topology, would add every
// run's keys to it (measured with the table made a package variable: from
// 1.1 MB after 50 runs to 1.9 MB after 300; as it is, the heap after 300
// reads 0.1–0.2 MB below the heap after 50).
func TestRunsLeaveNothingBehind(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector say little")
	}
	topo := Grid(16, 16)
	heapAfter := func(from, to int) uint64 {
		for i := from; i < to; i++ {
			c, err := New(topo, WithSeed(int64(i)), WithoutTraceBuffer())
			if err != nil {
				t.Fatal(err)
			}
			block := GridBlock(1+i%10, 1+i/10%10, 5)
			res, err := c.Run(context.Background(), NewPlan().At(10).Crash(block...).At(30).Crash(GridID(i%10, 6+i/10%10)))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Decisions) == 0 {
				t.Fatalf("run %d decided nothing", i)
			}
		}
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	warm := heapAfter(0, 50)
	end := heapAfter(50, 300)
	t.Logf("HeapInuse after 50 runs %d B, after 300 runs %d B", warm, end)
	if end > warm+256<<10 {
		t.Errorf("HeapInuse grew from %d B after 50 runs to %d B after 300: something outlives its run", warm, end)
	}
}
