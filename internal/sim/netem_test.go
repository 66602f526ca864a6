package sim

import (
	"fmt"
	"runtime"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/netem"
	"cliffedge/internal/proto"
	"cliffedge/internal/trace"
)

// netemScenario runs a 6×6-grid cascade (a 2×2 block crash at t=10) under
// the given link-fault model and returns the trace.
func netemScenario(t *testing.T, seed int64, model *netem.Model) ([]trace.Event, map[graph.NodeID]bool) {
	t.Helper()
	g := graph.Grid(6, 6)
	var net *netem.Net
	if model != nil {
		var err error
		net, err = model.Bind(g, seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	var crashes []CrashAt
	for _, n := range graph.CenterBlock(6, 6, 2) {
		crashes = append(crashes, CrashAt{Time: 10, Node: n})
	}
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: seed,
		Crashes: crashes, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	decided := make(map[graph.NodeID]bool)
	for n := range res.Decisions {
		decided[n] = true
	}
	return res.Events, decided
}

func traceKey(events []trace.Event) string {
	key := ""
	for _, e := range events {
		key += e.String() + "\n"
	}
	return key
}

// TestNetemSimDeterministic: with a link-fault model enabled, the same
// (seed, profile) pair must reproduce the trace bit for bit across runs
// and across GOMAXPROCS settings, in both modes.
func TestNetemSimDeterministic(t *testing.T) {
	models := map[string]*netem.Model{
		"retransmit": {
			Default: netem.Profile{Loss: 0.2, JitterMax: 15, SpikeProb: 0.05, SpikeMin: 40, SpikeMax: 120},
			Rules:   []netem.Rule{{A: []graph.NodeID{graph.GridID(0, 0)}, Flap: &netem.Flap{Start: 5, Down: 40, Period: 100}}},
		},
		"rawloss": {
			Mode:    netem.RawLoss,
			Default: netem.Profile{Loss: 0.1, JitterMax: 10, DupProb: 0.1},
		},
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			base, _ := netemScenario(t, 7, model)
			want := traceKey(base)
			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			for run, procs := range []int{prev, 1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				events, _ := netemScenario(t, 7, model)
				if got := traceKey(events); got != want {
					t.Fatalf("run %d (GOMAXPROCS=%d): trace diverged", run, procs)
				}
			}
		})
	}
}

// TestNetemRetransmitKeepsOutcome: under retransmission-mode degradation a
// quiescent single-wave cascade must reach the same decisions as the
// perfect network — reliability is intact, only timing degrades — and the
// trace must conserve messages (every send delivered or dropped at a
// crashed recipient).
func TestNetemRetransmitKeepsOutcome(t *testing.T) {
	_, wantDecided := netemScenario(t, 3, nil)
	model := &netem.Model{
		Default: netem.Profile{Loss: 0.4, JitterMax: 25, SpikeProb: 0.1, SpikeMin: 50, SpikeMax: 150},
	}
	events, decided := netemScenario(t, 3, model)
	if len(decided) == 0 {
		t.Fatal("nobody decided under retransmission-mode degradation")
	}
	if fmt.Sprint(decided) != fmt.Sprint(wantDecided) {
		t.Fatalf("decider sets diverge: %v (netem) vs %v (perfect)", decided, wantDecided)
	}
	stats := trace.Summarize(events)
	if stats.Messages != stats.Deliveries+stats.Drops {
		t.Fatalf("conservation broken in retransmit mode: %d sends, %d deliveries, %d drops",
			stats.Messages, stats.Deliveries, stats.Drops)
	}
}

// TestNetemRawLossBreaksConservation: raw-loss drops are traced as drops
// (conserving the send/deliver/drop ledger) while duplicates deliberately
// deliver more copies than were sent.
func TestNetemRawLossTraces(t *testing.T) {
	model := &netem.Model{Mode: netem.RawLoss, Default: netem.Profile{Loss: 0.15}}
	events, _ := netemScenario(t, 5, model)
	stats := trace.Summarize(events)
	if stats.Drops == 0 {
		t.Fatal("loss 0.15 produced no drops")
	}
	if stats.Messages != stats.Deliveries+stats.Drops {
		t.Fatalf("pure-loss ledger should conserve: %d sends, %d deliveries, %d drops",
			stats.Messages, stats.Deliveries, stats.Drops)
	}

	dupModel := &netem.Model{Mode: netem.RawLoss, Default: netem.Profile{DupProb: 0.5}}
	events, _ = netemScenario(t, 5, dupModel)
	stats = trace.Summarize(events)
	if stats.Deliveries+stats.Drops <= stats.Messages {
		t.Fatalf("dup 0.5 delivered no extra copies: %d sends, %d deliveries, %d drops",
			stats.Messages, stats.Deliveries, stats.Drops)
	}
}

// TestNetemPreservesFIFO: heavy jitter plus retransmission backoffs must
// never reorder two messages on the same (from, to) channel.
func TestNetemPreservesFIFO(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").Build()
	model := &netem.Model{
		Default: netem.Profile{Loss: 0.5, JitterMax: 200, SpikeProb: 0.3, SpikeMin: 100, SpikeMax: 1000},
	}
	net, err := model.Bind(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	chatters := map[graph.NodeID]*chatter{}
	r, err := NewRunner(Config{
		Graph:      g,
		Seed:       9,
		NetLatency: Uniform{Min: 1, Max: 100},
		Net:        net,
		Factory: func(id graph.NodeID) proto.Automaton {
			c := &chatter{id: id, burst: 60}
			if id == "a" {
				c.targets = []int32{g.Index("b")}
			}
			chatters[id] = c
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got := chatters["b"].received
	if len(got) != 60 {
		t.Fatalf("b received %d messages, want 60", len(got))
	}
	for i, n := range got {
		if n != i {
			t.Fatalf("FIFO broken: position %d received burst #%d", i, n)
		}
	}
}
