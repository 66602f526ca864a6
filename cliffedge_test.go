package cliffedge

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"cliffedge/internal/region"
)

// runPlan builds a cluster over topo and runs plan on it.
func runPlan(topo *Topology, plan *Plan, opts ...Option) (*Result, error) {
	c, err := New(topo, opts...)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background(), plan)
}

func TestRunCheckedQuickstart(t *testing.T) {
	topo := Grid(8, 8)
	victims := CenterBlock(8, 8, 2)
	res, err := runPlan(topo, NewPlan().At(10).Crash(victims...), WithSeed(1), WithChecker())
	if err != nil {
		t.Fatal(err)
	}
	border := region.New(topo, victims).Border()
	if len(res.Decisions) != len(border) {
		t.Fatalf("got %d decisions, want %d", len(res.Decisions), len(border))
	}
	first := res.Decisions[0]
	for _, d := range res.Decisions {
		if !d.View.Equal(first.View) || d.Value != first.Value {
			t.Errorf("decisions disagree: %v vs %v", d, first)
		}
	}
	if res.Stats.Messages == 0 || res.Stats.DecideTime == 0 {
		t.Error("stats should be populated")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	topo := Grid(7, 7)
	plan := NewPlan().At(5).Crash(CenterBlock(7, 7, 2)...)
	a, err := runPlan(topo, plan, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPlan(topo, plan, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("different event counts: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRunSeedChangesSchedule(t *testing.T) {
	plan := NewPlan().At(5).Crash(CenterBlock(7, 7, 2)...)
	a, _ := runPlan(Grid(7, 7), plan, WithSeed(1))
	b, _ := runPlan(Grid(7, 7), plan, WithSeed(2))
	if a.Stats.EndTime == b.Stats.EndTime && a.Stats.Messages == b.Stats.Messages &&
		len(a.Events()) == len(b.Events()) {
		// Extremely unlikely to coincide on all three if seeds matter.
		t.Log("seeds produced identical stats; verify latency model wiring")
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Errorf("different seeds changed the outcome size: %d vs %d",
			len(a.Decisions), len(b.Decisions))
	}
}

func TestCustomProposeAndPick(t *testing.T) {
	topo := Grid(5, 5)
	victim := GridID(2, 2)
	res, err := runPlan(topo, NewPlan().At(10).Crash(victim),
		WithSeed(3), WithChecker(),
		WithPropose(func(v Region) Value { return Value("plan-z") }),
		WithPick(func(vals []Value) Value {
			max := vals[0]
			for _, v := range vals {
				if v > max {
					max = v
				}
			}
			return max
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Value != "plan-z" {
			t.Errorf("decision value %q, want plan-z", d.Value)
		}
	}
}

func TestRunLiveMatchesSimOutcome(t *testing.T) {
	topo := Grid(6, 6)
	block := GridBlock(2, 2, 2)
	live, err := runPlan(topo, NewPlan().At(1).Crash(block...),
		WithEngine(Live()), WithLiveTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	simres, err := runPlan(topo, NewPlan().At(10).Crash(block...), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Decisions) != len(simres.Decisions) {
		t.Fatalf("live %d decisions vs sim %d", len(live.Decisions), len(simres.Decisions))
	}
	for i := range live.Decisions {
		if !live.Decisions[i].View.Equal(simres.Decisions[i].View) {
			t.Errorf("decision %d view mismatch: %s vs %s",
				i, live.Decisions[i].View, simres.Decisions[i].View)
		}
	}
}

func TestNarrativeAndHelpers(t *testing.T) {
	topo := Grid(4, 4)
	victim := GridID(1, 1)
	res, err := runPlan(topo, NewPlan().At(5).Crash(victim), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Narrative(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"crash", "propose", "decide"} {
		if !strings.Contains(out, frag) {
			t.Errorf("narrative missing %q", frag)
		}
	}
	d := res.DecisionByNode(GridID(0, 1))
	if d == nil {
		t.Fatal("border node should have a decision")
	}
	if res.DecisionByNode(GridID(3, 3)) != nil {
		t.Error("far node should not decide")
	}
	dot := DOT(topo, []NodeID{victim}, "run")
	if !strings.Contains(dot, "fillcolor") {
		t.Error("DOT should shade crashed nodes")
	}
}

func TestTopologyBuilderFacade(t *testing.T) {
	topo := NewTopology().AddEdge("a", "b").AddEdge("b", "c").Build()
	res, err := runPlan(topo, NewPlan().At(5).Crash("b"), WithSeed(1), WithChecker())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("want decisions from a and c, got %v", res.Decisions)
	}
	if !res.Crashed["b"] {
		t.Error("Crashed set should contain b")
	}
	r, err := NewRegion(topo, []NodeID{"b"})
	if err != nil || r.BorderLen() != 2 {
		t.Errorf("NewRegion facade broken: %s, %v", r, err)
	}
	if r, err := NewRegion(topo, []NodeID{"b", "zz"}); err == nil || !strings.Contains(err.Error(), `"zz"`) || !r.IsEmpty() {
		t.Errorf("NewRegion over a node outside the topology = %s, %v; want ∅ and an error naming zz", r, err)
	}
}

func TestRunRequiresTopology(t *testing.T) {
	if _, err := runPlan(nil, NewPlan()); err == nil {
		t.Error("New should reject a nil topology")
	}
	if _, err := runPlan(nil, NewPlan(), WithEngine(Live()), WithLiveTimeout(time.Second)); err == nil {
		t.Error("New should reject a nil topology for the live engine")
	}
}

func TestRunPredicateFacade(t *testing.T) {
	topo := Grid(7, 7)
	patch := GridBlock(2, 2, 2)
	res, err := runPlan(topo, NewPlan().At(10).Mark(patch...), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	border := region.New(topo, patch).Border()
	if len(res.Decisions) != len(border) {
		t.Fatalf("got %d decisions, want %d", len(res.Decisions), len(border))
	}
	for _, d := range res.Decisions {
		if d.View.Len() != len(patch) {
			t.Errorf("%s decided %s, want the full patch", d.Node, d.View)
		}
	}
	if len(res.Crashed) != 0 {
		t.Error("nobody crashes in the predicate variant")
	}
}

func TestRunPredicateValidation(t *testing.T) {
	if _, err := runPlan(nil, NewPlan()); err == nil {
		t.Error("nil topology accepted")
	}
	topo := Grid(3, 3)
	if _, err := runPlan(topo, NewPlan().At(1).Mark("ghost")); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestTriggerFacade(t *testing.T) {
	topo := Grid(6, 6)
	block := GridBlock(2, 2, 2)
	res, err := runPlan(topo, NewPlan().
		At(10).Crash(block...).
		OnEvent(func(e Event) bool { return e.Kind == EventPropose }, 1).Crash(GridID(2, 4)),
		WithSeed(3), WithChecker())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed[GridID(2, 4)] {
		t.Error("trigger did not fire")
	}
}
