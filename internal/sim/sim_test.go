package sim

import (
	"strings"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/trace"
)

// echoPayload is a minimal payload for kernel-level tests.
type echoPayload struct{ n int }

func (echoPayload) WireSize() int { return 4 }
func (echoPayload) Kind() string  { return "echo" }

// chatter is a scripted automaton: on Start it multicasts `burst` messages
// to its targets; it records the order of everything it receives.
type chatter struct {
	id       graph.NodeID
	targets  []int32
	burst    int
	received []int
	from     []graph.NodeID
}

func (c *chatter) ID() graph.NodeID                   { return c.id }
func (c *chatter) Decided() *proto.Decision           { return nil }
func (c *chatter) OnCrash(graph.NodeID) proto.Effects { return proto.Effects{} }

func (c *chatter) Start() proto.Effects {
	var eff proto.Effects
	for i := 0; i < c.burst; i++ {
		eff.Sends = append(eff.Sends, proto.Send{To: c.targets, Payload: echoPayload{n: i}})
	}
	return eff
}

func (c *chatter) OnMessage(from graph.NodeID, p proto.Payload) proto.Effects {
	c.received = append(c.received, p.(echoPayload).n)
	c.from = append(c.from, from)
	return proto.Effects{}
}

func TestFIFOPerChannel(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").Build()
	chatters := map[graph.NodeID]*chatter{}
	r, err := NewRunner(Config{
		Graph: g,
		Seed:  3,
		// Highly variable latency to provoke reordering attempts.
		NetLatency: Uniform{Min: 1, Max: 100},
		Factory: func(id graph.NodeID) proto.Automaton {
			c := &chatter{id: id, burst: 50}
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
	b := chatters["b"]
	if len(b.received) != 50 {
		t.Fatalf("b received %d messages, want 50", len(b.received))
	}
	for i, n := range b.received {
		if n != i {
			t.Fatalf("FIFO violated: position %d got message %d", i, n)
		}
	}
}

// TestSendOutsideGraphPanics: a recipient index outside the graph is a bug
// in the automaton under test, and the kernel says whose.
func TestSendOutsideGraphPanics(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").Build()
	for _, to := range []int32{int32(g.Len()), -2} {
		r, err := NewRunner(Config{
			Graph: g,
			Factory: func(id graph.NodeID) proto.Automaton {
				c := &chatter{id: id}
				if id == "b" {
					c.burst, c.targets = 1, []int32{to}
				}
				return c
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "b sends to node index") {
					t.Errorf("send to index %d: panic %q, want one naming the sender b", to, msg)
				}
			}()
			r.Run()
		}()
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []trace.Event {
		g := graph.Grid(5, 5)
		r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: seed,
			Crashes: []CrashAt{{Time: 10, Node: graph.GridID(2, 2)},
				{Time: 25, Node: graph.GridID(2, 3)}}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Events
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%v\n%v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces; latency model not wired?")
	}
}

func TestDropToCrashedNode(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").Build()
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 1,
		// b crashes; later a and c exchange messages about {b}. Crash c
		// mid-protocol so some in-flight messages to c are dropped.
		Crashes: []CrashAt{{Time: 10, Node: "b"}, {Time: 14, Node: "c"}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages != res.Stats.Deliveries+res.Stats.Drops {
		t.Errorf("conservation: %d sends vs %d deliveries + %d drops",
			res.Stats.Messages, res.Stats.Deliveries, res.Stats.Drops)
	}
}

func TestSubscribeAfterCrashStillNotifies(t *testing.T) {
	// d's only path to learn about the far side: it monitors c (its
	// neighbour); when c crashes it subscribes to border(c) ∋ b, which
	// crashed LONG ago — the detector must still notify.
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build()
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 2,
		Crashes: []CrashAt{{Time: 10, Node: "b"}, {Time: 200, Node: "c"}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// d learns about b only through the late subscription (b crashed 190
	// ticks before d started monitoring it) and must therefore detect b
	// and propose the full region {b,c}. It cannot *decide* it: a decided
	// {b} back in the first wave and, per the paper's weak progress
	// (CD7), decided nodes never join later, larger instances.
	detectedB, proposedBC := false, false
	for _, e := range res.Events {
		if e.Kind == trace.KindDetect && e.Node == "d" && e.Peer == "b" {
			detectedB = true
		}
		if e.Kind == trace.KindPropose && e.Node == "d" && e.View == "b,c" {
			proposedBC = true
		}
	}
	if !detectedB {
		t.Error("d never received the subscribe-after-crash notification for b")
	}
	if !proposedBC {
		t.Error("d never proposed the full region {b,c}")
	}
	if res.Decisions["a"] == nil || res.Decisions["a"].View.Key() != "b" {
		t.Error("a should have decided {b} in the first wave")
	}
}

func TestTriggerFiresOnce(t *testing.T) {
	g := graph.Grid(4, 4)
	fired := 0
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 3,
		Crashes: []CrashAt{{Time: 10, Node: graph.GridID(1, 1)}},
		Triggers: []Trigger{{
			Node:  graph.GridID(1, 2),
			Delay: 2,
			When: func(e trace.Event) bool {
				if e.Kind == trace.KindPropose {
					fired++
					return true
				}
				return false
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[graph.GridID(1, 2)] {
		t.Error("trigger did not crash its node")
	}
	if res.Stats.Crashes != 2 {
		t.Errorf("crashes = %d, want 2", res.Stats.Crashes)
	}
}

func TestInjectionDelivered(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").Build()
	var got []int
	r, err := NewRunner(Config{
		Graph: g,
		Seed:  1,
		Factory: func(id graph.NodeID) proto.Automaton {
			return &probe{id: id, got: &got}
		},
		Injections: []InjectAt{
			{Time: 5, Node: "a", Payload: echoPayload{n: 1}},
			{Time: 9, Node: "a", Payload: echoPayload{n: 2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("injections delivered %v, want [1 2]", got)
	}
}

type probe struct {
	id  graph.NodeID
	got *[]int
}

func (p *probe) ID() graph.NodeID                   { return p.id }
func (p *probe) Decided() *proto.Decision           { return nil }
func (p *probe) Start() proto.Effects               { return proto.Effects{} }
func (p *probe) OnCrash(graph.NodeID) proto.Effects { return proto.Effects{} }
func (p *probe) OnMessage(_ graph.NodeID, m proto.Payload) proto.Effects {
	*p.got = append(*p.got, m.(echoPayload).n)
	return proto.Effects{}
}

func TestMaxEventsGuard(t *testing.T) {
	g := graph.Grid(5, 5)
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 1,
		Crashes:   []CrashAt{{Time: 10, Node: graph.GridID(2, 2)}},
		MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("expected event-budget error")
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Grid(2, 2)
	if _, err := NewRunner(Config{Factory: coreFactory(g)}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewRunner(Config{Graph: g}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := NewRunner(Config{Graph: g, Factory: coreFactory(g),
		Crashes: []CrashAt{{Time: 1, Node: "ghost"}}}); err == nil {
		t.Error("unknown crash node accepted")
	}
}

func TestUniformDraw(t *testing.T) {
	u := Uniform{Min: 3, Max: 9}
	seen := make(map[int64]bool)
	for i := uint64(0); i < 200; i++ {
		d := u.draw(keyedRand(1, 0, 1, 0, i))
		if d < 3 || d > 9 {
			t.Fatalf("Uniform out of range: %d", d)
		}
		seen[d] = true
	}
	if len(seen) != 7 {
		t.Errorf("200 draws from [3, 9] hit %d values, want all 7", len(seen))
	}
	if (Uniform{Min: 5, Max: 5}).draw(keyedRand(1, 0, 1, 0, 0)) != 5 {
		t.Error("degenerate Uniform")
	}
}

func TestSortedDecisionsOrder(t *testing.T) {
	g := graph.Grid(4, 4)
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 5,
		Crashes: []CrashAt{{Time: 10, Node: graph.GridID(1, 1)}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	ds := res.SortedDecisions()
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Node >= ds[i].Node {
			t.Fatalf("decisions not sorted: %v before %v", ds[i-1].Node, ds[i].Node)
		}
	}
}
