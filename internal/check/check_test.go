package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/region"
	"cliffedge/internal/trace"
)

// The checker is itself a critical artifact: these tests feed it
// hand-built traces that violate each property and assert the violation
// is caught (a checker that never fires proves nothing), plus clean traces
// that must pass.

// pathGraph returns a - b - c - d.
func pathGraph() *graph.Graph {
	return graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build()
}

// cleanTrace is a minimal correct run on pathGraph: b crashes, a and c
// agree on {b}.
func cleanTrace() []trace.Event {
	return []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
		{Time: 2, Kind: trace.KindDetect, Node: "a", Peer: "b"},
		{Time: 2, Kind: trace.KindDetect, Node: "c", Peer: "b"},
		{Time: 3, Kind: trace.KindPropose, Node: "a", View: "b"},
		{Time: 3, Kind: trace.KindPropose, Node: "c", View: "b"},
		{Time: 3, Kind: trace.KindSend, Node: "a", Peer: "c", View: "b", Round: 1, Bytes: 10},
		{Time: 3, Kind: trace.KindSend, Node: "c", Peer: "a", View: "b", Round: 1, Bytes: 10},
		{Time: 4, Kind: trace.KindDeliver, Node: "c", Peer: "a", View: "b", Round: 1, Bytes: 10},
		{Time: 4, Kind: trace.KindDeliver, Node: "a", Peer: "c", View: "b", Round: 1, Bytes: 10},
		{Time: 5, Kind: trace.KindSend, Node: "a", Peer: "c", View: "b", Round: 2, Bytes: 10},
		{Time: 5, Kind: trace.KindSend, Node: "c", Peer: "a", View: "b", Round: 2, Bytes: 10},
		{Time: 6, Kind: trace.KindDeliver, Node: "c", Peer: "a", View: "b", Round: 2, Bytes: 10},
		{Time: 6, Kind: trace.KindDeliver, Node: "a", Peer: "c", View: "b", Round: 2, Bytes: 10},
		{Time: 7, Kind: trace.KindDecide, Node: "a", View: "b", Value: "v"},
		{Time: 7, Kind: trace.KindDecide, Node: "c", View: "b", Value: "v"},
	}
}

func hasViolation(rep Report, prop string) bool {
	for _, v := range rep.Violations {
		if v.Property == prop {
			return true
		}
	}
	return false
}

func TestCleanTracePasses(t *testing.T) {
	rep := Run(pathGraph(), cleanTrace())
	if !rep.Ok() {
		t.Fatalf("clean trace rejected: %s", rep)
	}
	if rep.Decisions != 2 || rep.FaultyDomains != 1 || rep.Clusters != 1 || rep.DecidedClusters != 1 {
		t.Errorf("report counters wrong: %+v", rep)
	}
	if !strings.Contains(rep.String(), "ok:") {
		t.Errorf("clean report string: %q", rep.String())
	}
}

func TestCD1DoubleDecision(t *testing.T) {
	events := append(cleanTrace(),
		trace.Event{Time: 9, Kind: trace.KindDecide, Node: "a", View: "b", Value: "v"})
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD1") {
		t.Fatalf("double decision not caught: %s", rep)
	}
}

func TestCD2LiveNodeInView(t *testing.T) {
	events := cleanTrace()
	// a decides a view containing the live node c.
	events[13] = trace.Event{Time: 7, Kind: trace.KindDecide, Node: "a", View: "b,c", Value: "v"}
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD2") {
		t.Fatalf("live node in view not caught: %s", rep)
	}
}

func TestCD2DecideBeforeCrash(t *testing.T) {
	events := cleanTrace()
	// The decision predates b's crash.
	events[13].Time = 0
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD2") {
		t.Fatalf("decision-before-crash not caught: %s", rep)
	}
}

func TestCD2NonBorderDecider(t *testing.T) {
	events := append(cleanTrace(),
		trace.Event{Time: 8, Kind: trace.KindDecide, Node: "d", View: "b", Value: "v"})
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD2") {
		t.Fatalf("non-border decider not caught: %s", rep)
	}
}

func TestCD2DisconnectedView(t *testing.T) {
	g := graph.NewBuilder().
		AddEdge("a", "b").AddEdge("a", "d"). // b and d both adjacent to a, not to each other
		Build()
	events := []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
		{Time: 1, Kind: trace.KindCrash, Node: "d"},
		{Time: 5, Kind: trace.KindDecide, Node: "a", View: "b,d", Value: "v"},
	}
	rep := Run(g, events)
	if !hasViolation(rep, "CD2") {
		t.Fatalf("disconnected view not caught: %s", rep)
	}
}

func TestCD3NonLocalMessage(t *testing.T) {
	events := append(cleanTrace(),
		// d talks to a: neither pair is within {b} ∪ border({b}).
		trace.Event{Time: 8, Kind: trace.KindSend, Node: "d", Peer: "a", Bytes: 5})
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD3") {
		t.Fatalf("non-local message not caught: %s", rep)
	}
}

func TestCD4MissingBorderDecision(t *testing.T) {
	events := cleanTrace()[:14] // drop c's decision
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD4") {
		t.Fatalf("missing border decision not caught: %s", rep)
	}
}

func TestCD5DisagreeingValues(t *testing.T) {
	events := cleanTrace()
	events[14].Value = "w" // c decides a different value
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD5") {
		t.Fatalf("value disagreement not caught: %s", rep)
	}
}

func TestCD6OverlappingViews(t *testing.T) {
	g := pathGraph()
	events := []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
		{Time: 1, Kind: trace.KindCrash, Node: "c"},
		{Time: 5, Kind: trace.KindDecide, Node: "a", View: "b", Value: "v"},
		{Time: 5, Kind: trace.KindDecide, Node: "d", View: "b,c", Value: "v"},
	}
	rep := Run(g, events)
	if !hasViolation(rep, "CD6") {
		t.Fatalf("overlapping distinct views not caught: %s", rep)
	}
}

func TestCD7UndecidedCluster(t *testing.T) {
	events := []trace.Event{{Time: 1, Kind: trace.KindCrash, Node: "b"}}
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "CD7") {
		t.Fatalf("undecided cluster not caught: %s", rep)
	}
}

// TestCD7OrderIsStable: a run with several undecided clusters lists its
// CD7 violations in domain order, so the report renders the same on every
// call (it once ranged over a map).
func TestCD7OrderIsStable(t *testing.T) {
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("r%02d", i%30)) }
	for i := 0; i < 30; i++ {
		b.AddEdge(id(i), id(i+1))
	}
	g := b.Build()
	var events []trace.Event
	for i := 0; i < 30; i += 5 { // six isolated crashes, nobody decides
		events = append(events, trace.Event{Time: 1, Kind: trace.KindCrash, Node: id(i)})
	}
	first := Run(g, events)
	if first.Clusters != 6 || len(first.Violations) != 6 {
		t.Fatalf("want six undecided clusters: %+v", first)
	}
	for k, v := range first.Violations {
		if want := fmt.Sprintf("faulty cluster {%s} has no correct decider on any border", id(5*k)); v.Detail != want {
			t.Fatalf("violation %d = %q, want %q", k, v.Detail, want)
		}
	}
	for i := 0; i < 50; i++ {
		if got := Run(g, events).String(); got != first.String() {
			t.Fatalf("call %d rendered differently:\n%s\nthen\n%s", i, first, got)
		}
	}
}

func TestCD7VacuousWhenAllCrashed(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").Build()
	events := []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "a"},
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
	}
	rep := Run(g, events)
	if hasViolation(rep, "CD7") {
		t.Fatalf("CD7 must be vacuous without survivors: %s", rep)
	}
}

func TestLemma2NonMonotonicProposals(t *testing.T) {
	events := append(cleanTrace(),
		trace.Event{Time: 8, Kind: trace.KindPropose, Node: "a", View: "b"})
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "LEMMA2") {
		t.Fatalf("repeated proposal not caught: %s", rep)
	}
}

func TestLemma2ProposeAfterReject(t *testing.T) {
	g := pathGraph()
	events := []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
		{Time: 1, Kind: trace.KindCrash, Node: "c"},
		{Time: 2, Kind: trace.KindPropose, Node: "a", View: "b,c"},
		{Time: 3, Kind: trace.KindReject, Node: "a", View: "b"},
		{Time: 4, Kind: trace.KindReject, Node: "a", View: "b"}, // double reject
	}
	rep := Run(g, events)
	if !hasViolation(rep, "LEMMA2") {
		t.Fatalf("double rejection not caught: %s", rep)
	}
}

func TestSanityPostCrashActivity(t *testing.T) {
	events := append(cleanTrace(),
		trace.Event{Time: 9, Kind: trace.KindSend, Node: "b", Peer: "a", Bytes: 5},
		trace.Event{Time: 9, Kind: trace.KindDeliver, Node: "a", Peer: "b", Bytes: 5})
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "SANITY") {
		t.Fatalf("post-crash send not caught: %s", rep)
	}
}

func TestSanityMessageConservation(t *testing.T) {
	events := append(cleanTrace(),
		trace.Event{Time: 8, Kind: trace.KindSend, Node: "a", Peer: "c", View: "b", Bytes: 5})
	rep := Run(pathGraph(), events)
	if !hasViolation(rep, "SANITY") {
		t.Fatalf("lost message not caught: %s", rep)
	}
}

func TestAutomataViolations(t *testing.T) {
	type bad struct{ violating }
	m := map[graph.NodeID]*bad{"x": {}, "c": {}, "q": {}, "a": {}}
	vs := AutomataViolations(m)
	if len(vs) != 4 || vs[0].Property != "INTERNAL" {
		t.Fatalf("AutomataViolations = %v", vs)
	}
	for i, id := range []string{"a", "c", "q", "x"} {
		if want := id + ": boom"; vs[i].Detail != want {
			t.Fatalf("violation %d = %q, want %q (by node ID)", i, vs[i].Detail, want)
		}
	}
}

type violating struct{}

func (violating) Violations() []string { return []string{"boom"} }

func TestReportStringLists(t *testing.T) {
	rep := Report{}
	rep.violatef("CD1", "node %s", graph.NodeID("x"))
	s := rep.String()
	if !strings.Contains(s, "CD1") || !strings.Contains(s, "node x") {
		t.Errorf("report string %q", s)
	}
	if rep.Ok() {
		t.Error("report with violations cannot be Ok")
	}
}

// TestViewReconstruction guards the region round-trip the checker relies
// on.
func TestViewReconstruction(t *testing.T) {
	g := pathGraph()
	r, err := region.FromKey(g, "b,c")
	if err != nil || r.Len() != 2 || !r.OnBorder("a") || !r.OnBorder("d") {
		t.Errorf("region reconstruction broken: %s borders %v (error %v)", r, r.Border(), err)
	}
}

// TestViewsOutsideTheTopology pins the report on traces whose view keys
// name nodes the topology does not have. Each decide of such a view is one
// CD2 violation naming the decider, the view and the foreign node, each
// propose of it one SANITY violation, and the view takes part in no region
// check: the disjoint {ghost0} and {ghost1} are no CD6 overlap, and a
// proposal of one is no LEMMA2 step. The reference checker reports the
// same.
func TestViewsOutsideTheTopology(t *testing.T) {
	ev := func(time int64, kind trace.Kind, node graph.NodeID, view string) trace.Event {
		return trace.Event{Time: time, Kind: kind, Node: node, View: view, Value: "v"}
	}
	for _, tc := range []struct {
		name   string
		events []trace.Event
		want   []string
	}{{
		name: "ghost0 and ghost1 decided by a and c, then {b,zz}",
		events: []trace.Event{
			ev(1, trace.KindCrash, "b", ""),
			ev(2, trace.KindPropose, "a", "b"),
			ev(3, trace.KindPropose, "a", "ghost0"),
			ev(4, trace.KindDecide, "a", "ghost0"),
			ev(4, trace.KindDecide, "c", "ghost1"),
			ev(5, trace.KindPropose, "d", "b,zz"),
			ev(6, trace.KindDecide, "d", "b,zz"),
		},
		want: []string{
			`CD2: node a decided view {ghost0}: region: node "ghost0" is not in the topology`,
			`CD2: node c decided view {ghost1}: region: node "ghost1" is not in the topology`,
			`CD2: node d decided view {b,zz}: region: node "zz" is not in the topology`,
			`SANITY: node a proposed view {ghost0}: region: node "ghost0" is not in the topology`,
			`SANITY: node d proposed view {b,zz}: region: node "zz" is not in the topology`,
		},
	}, {
		name: "a key with an empty part beside a clean run",
		events: append(cleanTrace(),
			ev(8, trace.KindPropose, "d", "b,"),
			ev(9, trace.KindDecide, "d", "b,"),
			ev(9, trace.KindDecide, "a", "b,")),
		want: []string{
			`CD1: node a decided twice: {b} then {b,}`,
			`CD2: node d decided view {b,}: region: node "" is not in the topology`,
			`CD2: node a decided view {b,}: region: node "" is not in the topology`,
			`SANITY: node d proposed view {b,}: region: node "" is not in the topology`,
		},
	}} {
		g := pathGraph()
		ref := newReferenceOnline(g)
		for _, e := range tc.events {
			ref.Observe(e)
		}
		for checker, rep := range map[string]Report{"Online": Run(g, tc.events), "reference": ref.Report()} {
			var got []string
			for _, v := range rep.Violations {
				got = append(got, v.String())
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("%s, %s checker:\n got %q\nwant %q", tc.name, checker, got, tc.want)
			}
		}
	}
}

// TestGhostCrashesCrossAWord: the checker keeps its crashed set as a
// bitset over checker indices, and node IDs outside the topology take the
// indices past g.Len(). On a 60-node ring the fifth ghost crash takes
// index 64, the first of the bitset's second word, which the first four
// did not need: the set must grow to hold it, and a send from a crashed
// ghost in that word is the same post-crash activity for the checker and
// its string-keyed reference.
func TestGhostCrashesCrossAWord(t *testing.T) {
	g := graph.Ring(60)
	var events []trace.Event
	for k := 0; k < 6; k++ {
		ghost := graph.NodeID(fmt.Sprintf("ghost%d", k))
		events = append(events, trace.Event{Time: int64(1 + k), Kind: trace.KindCrash, Node: ghost})
	}
	events = append(events,
		trace.Event{Time: 7, Kind: trace.KindSend, Node: "ghost5", Peer: graph.RingID(0), Bytes: 5},
		trace.Event{Time: 8, Kind: trace.KindDeliver, Node: graph.RingID(0), Peer: "ghost5", Bytes: 5})
	ref := newReferenceOnline(g)
	for _, e := range events {
		ref.Observe(e)
	}
	got, want := Run(g, events), ref.Report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Report differs from the reference:\n%s\nreference:\n%s", got, want)
	}
	if !hasViolation(got, "SANITY") {
		t.Fatalf("a send from a crashed ghost past the first word is not caught: %s", got)
	}
}

// safetyRun folds events through an Online checker and returns the
// safety-only report.
func safetyRun(g *graph.Graph, events []trace.Event) Report {
	o := NewOnline(g)
	for _, e := range events {
		o.Observe(e)
	}
	return o.SafetyReport()
}

// TestSafetyReportSkipsLiveness: a stalled run — messages lost, border
// nodes never decide — is a CD4/CD7/conservation breach for the full
// checker but clean for the safety subset.
func TestSafetyReportSkipsLiveness(t *testing.T) {
	events := []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
		{Time: 2, Kind: trace.KindDetect, Node: "a", Peer: "b"},
		{Time: 3, Kind: trace.KindPropose, Node: "a", View: "b"},
		// The proposal is lost on the wire: sent, never delivered.
		{Time: 3, Kind: trace.KindSend, Node: "a", Peer: "c", View: "b", Round: 1, Bytes: 10},
	}
	full := Run(pathGraph(), events)
	if !hasViolation(full, "CD7") || !hasViolation(full, "SANITY") {
		t.Fatalf("full checker should flag the stall: %s", full)
	}
	safe := safetyRun(pathGraph(), events)
	if !safe.Ok() {
		t.Fatalf("safety report flagged a legitimate stall: %s", safe)
	}
	if safe.FaultyDomains != 1 || safe.Clusters != 1 || safe.DecidedClusters != 0 {
		t.Errorf("safety report statistics wrong: %+v", safe)
	}
}

// TestSafetyReportSkipsCD4: one border node decided, the other stalled —
// CD4 for the full checker, clean for the safety subset.
func TestSafetyReportSkipsCD4(t *testing.T) {
	events := []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
		{Time: 2, Kind: trace.KindDetect, Node: "a", Peer: "b"},
		{Time: 7, Kind: trace.KindDecide, Node: "a", View: "b", Value: "v"},
	}
	if full := Run(pathGraph(), events); !hasViolation(full, "CD4") {
		t.Fatalf("full checker should flag CD4: %s", full)
	}
	if safe := safetyRun(pathGraph(), events); !safe.Ok() {
		t.Fatalf("safety report flagged a stalled border node: %s", safe)
	}
}

// TestSafetyReportKeepsSafety: genuine safety breaches — double decision,
// disagreeing border values, live member in a view — still fire in the
// safety-only report.
func TestSafetyReportKeepsSafety(t *testing.T) {
	dbl := append(cleanTrace(),
		trace.Event{Time: 8, Kind: trace.KindDecide, Node: "a", View: "b", Value: "v"})
	if rep := safetyRun(pathGraph(), dbl); !hasViolation(rep, "CD1") {
		t.Fatalf("CD1 lost in safety mode: %s", rep)
	}

	disagree := cleanTrace()
	disagree[len(disagree)-1].Value = "other"
	if rep := safetyRun(pathGraph(), disagree); !hasViolation(rep, "CD5") {
		t.Fatalf("CD5 lost in safety mode: %s", rep)
	}

	liveMember := []trace.Event{
		{Time: 1, Kind: trace.KindCrash, Node: "b"},
		{Time: 7, Kind: trace.KindDecide, Node: "a", View: "a,b", Value: "v"},
	}
	if rep := safetyRun(pathGraph(), liveMember); !hasViolation(rep, "CD2") {
		t.Fatalf("CD2 lost in safety mode: %s", rep)
	}
}

// TestSafetyReportAllowsDuplicates: more deliveries than sends (network
// duplication) breaks conservation for the full checker only.
func TestSafetyReportAllowsDuplicates(t *testing.T) {
	events := append(cleanTrace(),
		trace.Event{Time: 8, Kind: trace.KindDeliver, Node: "a", Peer: "c", View: "b", Round: 2, Bytes: 10})
	if full := Run(pathGraph(), events); !hasViolation(full, "SANITY") {
		t.Fatalf("full checker should flag duplication: %s", full)
	}
	if safe := safetyRun(pathGraph(), events); !safe.Ok() {
		t.Fatalf("safety report flagged duplication: %s", safe)
	}
}

// TestObserveSeenChannelAllocatesNothing: once a channel has carried a
// message, a send or delivery on it costs the checker no allocation — the
// per-message path is index lookups and counters only.
func TestObserveSeenChannelAllocatesNothing(t *testing.T) {
	o := NewOnline(pathGraph())
	for _, e := range cleanTrace() {
		o.Observe(e)
	}
	send := trace.Event{Time: 8, Kind: trace.KindSend, Node: "a", Peer: "c", View: "b", Round: 3, Bytes: 10}
	deliver := trace.Event{Time: 9, Kind: trace.KindDeliver, Node: "c", Peer: "a", View: "b", Round: 3, Bytes: 10}
	other := trace.Event{Time: 8, Kind: trace.KindSend, Node: "c", Peer: "a", View: "b", Round: 3, Bytes: 10}
	if n := testing.AllocsPerRun(100, func() {
		o.Observe(send)
		o.Observe(other) // a different sender: the cached index is replaced
		o.Observe(deliver)
	}); n != 0 {
		t.Errorf("Observe on seen channels allocated %.1f times per round", n)
	}
}
