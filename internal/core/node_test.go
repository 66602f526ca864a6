package core

import (
	"slices"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// opinion is one slot of an opinion vector as a test writes it: ⊥ (the
// zero opinion), accept(value) or reject. The protocol keeps no such slot —
// messages and instances hold the kinds as bitmasks and the values in one
// column — so tests build messages through message and read them back
// through opinionOf.
type opinion struct {
	kind  opinionKind
	value proto.Value // meaningful iff kind == accepted
}

type opinionKind uint8

const (
	unknown opinionKind = iota
	accepted
	rejected
)

func accept(v proto.Value) opinion { return opinion{kind: accepted, value: v} }

var reject = opinion{kind: rejected}

func (op opinion) String() string {
	switch op.kind {
	case accepted:
		return "accept(" + string(op.value) + ")"
	case rejected:
		return "reject"
	default:
		return "⊥"
	}
}

// ops is an opinion vector by NodeID; absent nodes are ⊥.
type ops = map[graph.NodeID]opinion

// borderPos returns q's position in a sorted border, or -1.
func borderPos(border []graph.NodeID, q graph.NodeID) int {
	if j, ok := slices.BinarySearch(border, q); ok {
		return j
	}
	return -1
}

// message builds the round-r message about view that `from` multicasts
// with the opinions o, laid out as the protocol lays out its own: masks
// over view's border, the accept values in a column, the sender's slot
// (none if from is not a participant).
func message(r int, view region.Region, from graph.NodeID, o ops) *Message {
	border := view.Border()
	slots := make([]opinion, len(border))
	for q, op := range o {
		slots[borderPos(border, q)] = op
	}
	return messageOf(r, view, from, slots)
}

// messageOf is message with the opinions given positionally.
func messageOf(r int, view region.Region, from graph.NodeID, slots []opinion) *Message {
	border := view.Border()
	words := maskWords(len(border))
	m := &Message{Round: r, View: view, masks: make([]uint64, 2*words),
		sender: int32(borderPos(border, from) + 1)}
	for j, op := range slots {
		bit := uint64(1) << uint(j&63)
		switch op.kind {
		case accepted:
			if m.values == nil {
				m.values = make([]proto.Value, len(border))
			}
			m.values[j] = op.value
			m.masks[j>>6] |= bit
		case rejected:
			m.masks[j>>6] |= bit
			m.masks[words+j>>6] |= bit
		}
	}
	return m
}

// opinionsOf decodes masks (known, then rejects) and values over n border
// positions; nil masks are all ⊥.
func opinionsOf(n int, masks []uint64, values []proto.Value) []opinion {
	out := make([]opinion, n)
	if masks == nil {
		return out
	}
	words := len(masks) / 2
	for j := range out {
		bit := uint64(1) << uint(j&63)
		switch {
		case masks[j>>6]&bit == 0:
		case masks[words+j>>6]&bit != 0:
			out[j] = reject
		default:
			out[j] = accept(values[j])
		}
	}
	return out
}

// opinionOf returns m's opinion of border node q.
func opinionOf(m *Message, q graph.NodeID) opinion {
	border := m.View.Border()
	return opinionsOf(len(border), m.masks, m.values)[borderPos(border, q)]
}

// known counts the non-⊥ slots of a vector.
func known(v []opinion) int {
	n := 0
	for _, op := range v {
		if op.kind != unknown {
			n++
		}
	}
	return n
}

// lineABC is a - b - c; crashing b leaves border {a, c}.
func lineABC() *graph.Graph {
	return graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").Build()
}

func mkNode(t *testing.T, g *graph.Graph, id graph.NodeID, value proto.Value) *Node {
	t.Helper()
	return New(Config{
		ID:      id,
		Graph:   g,
		Propose: func(region.Region) proto.Value { return value },
	})
}

// instanceOf returns n's received instance for view, nil if there is none
// (never heard of, or rejected).
func instanceOf(n *Node, view region.Region) *instance {
	if n.st == nil {
		return nil
	}
	if s := n.st.views.lookup(view.Hash(), view.Key()); s != nil {
		return s.inst
	}
	return nil
}

// monitorIDs names the nodes eff subscribes to.
func monitorIDs(g *graph.Graph, eff proto.Effects) []graph.NodeID {
	out := make([]graph.NodeID, len(eff.Monitor))
	for i, q := range eff.Monitor {
		out[i] = g.ID(q)
	}
	return out
}

func hasMonitor(g *graph.Graph, eff proto.Effects, q graph.NodeID) bool {
	return slices.Contains(monitorIDs(g, eff), q)
}

func TestStartMonitorsOwnBorder(t *testing.T) {
	g := lineABC()
	n := mkNode(t, g, "b", "vb")
	eff := n.Start()
	if len(eff.Monitor) != 2 || !hasMonitor(g, eff, "a") || !hasMonitor(g, eff, "c") {
		t.Fatalf("Start should monitor border(b) = {a, c}, got %v", monitorIDs(g, eff))
	}
	if len(eff.Sends) != 0 || eff.Decision != nil {
		t.Fatal("Start must not send or decide")
	}
}

func TestCrashTriggersProposal(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "va")
	a.Start()
	eff := a.OnCrash("b")

	if !hasMonitor(g, eff, "c") {
		t.Errorf("crash of b should widen monitoring to border(b) ∋ c, got %v", monitorIDs(g, eff))
	}
	if len(eff.Proposed) != 1 || eff.Proposed[0].Key() != "b" {
		t.Fatalf("expected proposal of {b}, got %v", eff.Proposed)
	}
	if !a.HasProposed() || a.CurrentView().Key() != "b" || a.Round() != 1 {
		t.Fatalf("proposal state wrong: proposed=%v vp=%s r=%d", a.HasProposed(), a.CurrentView(), a.Round())
	}
	if len(eff.Sends) != 1 {
		t.Fatalf("expected 1 multicast, got %d", len(eff.Sends))
	}
	send := eff.Sends[0]
	if len(send.To) != 2 || send.To[0] != g.Index("a") || send.To[1] != g.Index("c") {
		t.Errorf("round-1 multicast To should be the border {a, c} (network skips the sender), got %v", send.To)
	}
	m := send.Payload.(*Message)
	if m.Round != 1 || m.View.Key() != "b" {
		t.Errorf("bad round-1 message %s", m)
	}
	if op := opinionOf(m, "a"); op != accept("va") {
		t.Errorf("proposal must carry own accept, got %v", op)
	}
	if op := opinionOf(m, "c"); op.kind != unknown {
		t.Errorf("other slots must be ⊥, got %v", op)
	}
}

// TestMulticastSharesBorderIndices: every multicast — a proposal, a
// rejection and a later round — names its recipients by the view's own
// BorderIndices slice, handed over as is rather than copied.
func TestMulticastSharesBorderIndices(t *testing.T) {
	shared := func(what string, to, want []int32) {
		t.Helper()
		if len(to) == 0 || len(to) != len(want) || &to[0] != &want[0] {
			t.Errorf("%s: Send.To %v is not the view's BorderIndices %v itself", what, to, want)
		}
	}
	// a borders {b} (border {a, c}) and {d} (border {a, e}); "b" < "d".
	g := graph.NewBuilder().
		AddEdge("a", "b").AddEdge("b", "c").
		AddEdge("a", "d").AddEdge("d", "e").
		Build()
	a := mkNode(t, g, "a", "va")
	a.Start()
	eff := a.OnCrash("d")
	if len(eff.Sends) != 1 {
		t.Fatalf("expected the proposal multicast, got %+v", eff)
	}
	own := a.CurrentView()
	shared("proposal", eff.Sends[0].To, own.BorderIndices())

	low := region.New(g, []graph.NodeID{"b"})
	eff = a.OnMessage("c", message(1, low, "c", ops{"c": accept("vc")}))
	if len(eff.Rejected) != 1 || len(eff.Sends) != 1 {
		t.Fatalf("expected the rejection of {b}, got %+v", eff)
	}
	shared("rejection", eff.Sends[0].To, low.BorderIndices())

	eff = a.OnMessage("e", message(1, own, "e", ops{"e": accept("ve")}))
	if a.Round() != 2 || len(eff.Sends) != 1 {
		t.Fatalf("expected the round-2 multicast, got round %d and %+v", a.Round(), eff)
	}
	shared("round 2", eff.Sends[0].To, own.BorderIndices())
	if len(a.Violations()) != 0 {
		t.Errorf("violations: %v", a.Violations())
	}
}

func TestTwoPartyAgreement(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("b")

	// c's symmetrical round-1 proposal arrives; |B| = 2 means the uniform
	// instance runs 2 rounds, so a advances to round 2 and multicasts its
	// merged vector.
	view := region.New(g, []graph.NodeID{"b"})
	eff := a.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))
	if eff.Decision != nil {
		t.Fatal("uniform agreement must not decide after a single round")
	}
	if a.Round() != 2 {
		t.Fatalf("round = %d, want 2", a.Round())
	}
	if len(eff.Sends) != 1 {
		t.Fatalf("expected the round-2 multicast, got %d sends", len(eff.Sends))
	}
	r2 := eff.Sends[0].Payload.(*Message)
	if r2.Round != 2 || opinionOf(r2, "c") != accept("vc") || opinionOf(r2, "a") != accept("va") {
		t.Errorf("round-2 message must carry the merged round-1 vector, got %s", r2)
	}

	// c's round-2 message completes the final round: all-accept → decide.
	eff = a.OnMessage("c", message(2, view, "c", ops{"a": accept("va"), "c": accept("vc")}))
	if eff.Decision == nil {
		t.Fatal("a should decide after the final round")
	}
	if eff.Decision.View.Key() != "b" {
		t.Errorf("decided view %s, want {b}", eff.Decision.View)
	}
	if eff.Decision.Value != "va" { // min("va", "vc")
		t.Errorf("decided value %q, want deterministic min \"va\"", eff.Decision.Value)
	}
	if a.Decided() == nil || a.Decided().Value != "va" {
		t.Error("Decided() should expose the decision")
	}
	if len(a.Violations()) != 0 {
		t.Errorf("violations: %v", a.Violations())
	}
}

func TestDecisionIsPickOfAllValues(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "zz-last")
	a.Start()
	a.OnCrash("b")
	view := region.New(g, []graph.NodeID{"b"})
	a.OnMessage("c", message(1, view, "c", ops{"c": accept("aa-first")}))
	eff := a.OnMessage("c", message(2, view, "c", ops{"c": accept("aa-first"), "a": accept("zz-last")}))
	if eff.Decision == nil || eff.Decision.Value != "aa-first" {
		t.Fatalf("deterministicPick should take the minimum of all accepted values, got %v", eff.Decision)
	}
}

// TestLiteralPaperRoundsDecidesEarlier pins the behavioural difference of
// the printed |B|−1 round count: the two-party instance decides after a
// single round.
func TestLiteralPaperRoundsDecidesEarlier(t *testing.T) {
	g := lineABC()
	a := New(Config{ID: "a", Graph: g, LiteralPaperRounds: true,
		Propose: func(region.Region) proto.Value { return "va" }})
	a.Start()
	a.OnCrash("b")
	view := region.New(g, []graph.NodeID{"b"})
	eff := a.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))
	if eff.Decision == nil {
		t.Fatal("literal round count should decide after round 1 with |B| = 2")
	}
}

func TestSingleBorderDecidesImmediately(t *testing.T) {
	// a - b and nothing else: border({b}) = {a} alone.
	g := graph.NewBuilder().AddEdge("a", "b").Build()
	a := mkNode(t, g, "a", "va")
	a.Start()
	eff := a.OnCrash("b")
	if eff.Decision == nil || eff.Decision.View.Key() != "b" || eff.Decision.Value != "va" {
		t.Fatalf("sole border node should decide immediately, got %+v", eff.Decision)
	}
	if len(eff.Sends) != 0 {
		t.Errorf("no messages expected, got %d", len(eff.Sends))
	}
}

func TestRejectLowerRankedView(t *testing.T) {
	// a borders two crashed singletons {b} and {d}; border({b}) = {a, c},
	// border({d}) = {a, e}. Ranking: sizes tie, border sizes tie, key
	// "b" < "d", so a proposes {d} and must reject {b} when it arrives.
	g := graph.NewBuilder().
		AddEdge("a", "b").AddEdge("b", "c").
		AddEdge("a", "d").AddEdge("d", "e").
		Build()
	// a proposed {d} (higher-ranked than {b}: sizes and border sizes tie,
	// "b" < "d" lexicographically), then receives a round-1 proposal for
	// {b} from c. a must reject it.
	b := New(Config{ID: "a", Graph: g, Propose: func(region.Region) proto.Value { return "va" }})
	b.Start()
	b.OnCrash("d")
	if b.CurrentView().Key() != "d" {
		t.Fatalf("setup: vp = %s, want {d}", b.CurrentView())
	}
	msg := message(1, region.New(g, []graph.NodeID{"b"}), "c", ops{"c": accept("vc")})
	eff := b.OnMessage("c", msg)
	if len(eff.Rejected) != 1 || eff.Rejected[0].Key() != "b" {
		t.Fatalf("expected rejection of {b}, got %v", eff.Rejected)
	}
	if len(eff.Sends) != 1 {
		t.Fatalf("expected reject multicast, got %d sends", len(eff.Sends))
	}
	rm := eff.Sends[0].Payload.(*Message)
	if rm.View.Key() != "b" || opinionOf(rm, "a") != reject {
		t.Errorf("bad reject message %s", rm)
	}
	if got := opinionsOf(rm.View.BorderLen(), rm.masks, rm.values); known(got) != 1 || rm.values != nil {
		t.Errorf("reject vector should carry only own reject and no value column, got %s", rm)
	}

	// Further messages about {b} are ignored (line 18 guard).
	eff = b.OnMessage("c", msg)
	if !eff.IsZero() {
		t.Errorf("messages for rejected views must be ignored, got %+v", eff)
	}
}

func TestIncomingRejectForcesReset(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("b") // proposes {b}, border {a, c}
	msg := message(1, region.New(g, []graph.NodeID{"b"}), "c", ops{"c": reject})
	eff := a.OnMessage("c", msg)
	if eff.Resets != 1 {
		t.Fatalf("expected a reset, got %+v", eff)
	}
	if a.HasProposed() {
		t.Error("proposed must be ⊥ after reset")
	}
	if a.Decided() != nil {
		t.Error("no decision on a rejected instance")
	}
	if a.CurrentView().Key() != "b" {
		t.Error("V_p persists across resets")
	}

	// Growth: c (a border node of {b}) crashes; the component {b, c}
	// outranks {b}; its border is {a} alone, so a decides immediately.
	eff = a.OnCrash("c")
	if eff.Decision == nil || eff.Decision.View.Key() != "b,c" {
		t.Fatalf("expected immediate decision on {b,c}, got %+v", eff.Decision)
	}
}

func TestMergeFillsBottomSlotsOnly(t *testing.T) {
	// b's neighbours: a, c, e — a three-party instance with 2 rounds.
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("c", "b").AddEdge("e", "b").Build()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("b")
	view := region.New(g, []graph.NodeID{"b"})
	border := []graph.NodeID{"a", "c", "e"}

	// e's vector (wrongly) claims c rejected; then c's own accept arrives.
	// Fill-⊥-only (line 24) keeps the first value.
	a.OnMessage("e", message(1, view, "e", ops{"e": accept("ve"), "c": reject}))
	a.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))

	inst := instanceOf(a, view)
	if inst == nil {
		t.Fatal("instance missing")
	}
	if op := opinionsOf(len(border), inst.round(1)[inst.words:], inst.values)[borderPos(border, "c")]; op != reject {
		t.Errorf("line 24 must not overwrite: c slot = %v, want the first (reject)", op)
	}
}

func TestRejectorsClearWaitingAcrossRounds(t *testing.T) {
	// Same 3-party topology. c rejects in round 1; a advances to round 2;
	// a's own round-2 vector carries c's reject, clearing waiting[2] of c.
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("c", "b").AddEdge("e", "b").Build()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("b")
	view := region.New(g, []graph.NodeID{"b"})
	border := []graph.NodeID{"a", "c", "e"}

	a.OnMessage("c", message(1, view, "c", ops{"c": reject}))
	// waiting[1] = {e}; e's round-1 accept completes round 1 → round 2.
	eff := a.OnMessage("e", message(1, view, "e", ops{"e": accept("ve")}))
	if a.Round() != 2 {
		t.Fatalf("round = %d, want 2", a.Round())
	}
	if len(eff.Sends) != 1 {
		t.Fatalf("round-2 multicast missing")
	}
	m := eff.Sends[0].Payload.(*Message)
	if m.Round != 2 || opinionOf(m, "c") != reject || opinionOf(m, "e") != accept("ve") {
		t.Errorf("round-2 message must carry the round-1 vector, got %s", m)
	}
	inst := instanceOf(a, view)
	if inst.waitingFor(2, borderPos(border, "c")) {
		t.Error("self-delivered round-2 vector should clear c (a known rejector) from waiting[2]")
	}

	// e's round-2 and round-3 messages complete the remaining rounds
	// (|B| = 3 → 3 uniform rounds); the vector contains a reject, so a
	// resets instead of deciding.
	eff = a.OnMessage("e", message(2, view, "e", ops{"a": accept("va"), "c": reject, "e": accept("ve")}))
	if a.Round() != 3 {
		t.Fatalf("round = %d, want 3", a.Round())
	}
	eff = a.OnMessage("e", message(3, view, "e", ops{"a": accept("va"), "c": reject, "e": accept("ve")}))
	if eff.Resets != 1 || a.HasProposed() {
		t.Fatalf("expected reset on non-all-accept final vector, got %+v", eff)
	}
}

func TestDuplicateCrashIdempotent(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("b")
	eff := a.OnCrash("b")
	if !eff.IsZero() {
		t.Errorf("duplicate crash must be a no-op, got %+v", eff)
	}
}

func TestNoProposalWithoutDetection(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "va")
	a.Start()
	// A proposal for {b} arrives before a's own failure detector fired.
	msg := message(1, region.New(g, []graph.NodeID{"b"}), "c", ops{"c": accept("vc")})
	eff := a.OnMessage("c", msg)
	if len(eff.Proposed) != 0 || len(eff.Sends) != 0 {
		t.Errorf("a must not propose before detecting a crash, got %+v", eff)
	}
	// Once detection arrives the proposal goes out; c's accept is already
	// recorded, so round 1 completes immediately and a advances to the
	// final round (|B| = 2 → 2 uniform rounds).
	eff = a.OnCrash("b")
	if len(eff.Proposed) != 1 {
		t.Fatalf("expected proposal, got %+v", eff)
	}
	if a.Round() != 2 {
		t.Fatalf("round = %d, want 2 (round 1 already satisfied)", a.Round())
	}
	eff = a.OnMessage("c", message(2, region.New(g, []graph.NodeID{"b"}), "c", ops{"c": accept("vc"), "a": accept("va")}))
	if eff.Decision == nil {
		t.Fatal("expected decision after the final round")
	}
}

func TestMonitorDeduplication(t *testing.T) {
	// Diamond: a-b, a-c, b-d, c-d. Crashing b then c must subscribe to d
	// only once.
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("a", "c").
		AddEdge("b", "d").AddEdge("c", "d").Build()
	a := mkNode(t, g, "a", "va")
	a.Start()
	eff1 := a.OnCrash("b")
	if !hasMonitor(g, eff1, "d") {
		t.Fatal("first crash should subscribe to d")
	}
	eff2 := a.OnCrash("c")
	if hasMonitor(g, eff2, "d") {
		t.Error("second crash must not re-subscribe to d")
	}
}

func TestProposalsStrictlyMonotonic(t *testing.T) {
	// Path a-b-c-d: a detects b, proposes {b}; c rejects (it knows more);
	// a learns c crashed too and proposes {b,c}: strictly higher.
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("b")
	first := a.CurrentView()
	a.OnMessage("c", message(1, first, "c", ops{"c": reject}))
	if a.HasProposed() {
		t.Fatal("reset expected")
	}
	eff := a.OnCrash("c")
	if len(eff.Proposed) != 1 {
		t.Fatalf("expected re-proposal, got %+v", eff)
	}
	second := eff.Proposed[0]
	if !region.Less(&first, &second) {
		t.Errorf("proposals must be strictly increasing: %s then %s", first, second)
	}
	if len(a.Violations()) != 0 {
		t.Errorf("violations: %v", a.Violations())
	}
}

func TestForeignPayloadRecorded(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnMessage("c", badPayload{})
	if len(a.Violations()) != 1 {
		t.Errorf("foreign payload should be recorded as violation, got %v", a.Violations())
	}
}

type badPayload struct{}

func (badPayload) WireSize() int { return 1 }
func (badPayload) Kind() string  { return "bad" }

func TestCloneIndependence(t *testing.T) {
	g := lineABC()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("b")
	c := a.Clone()

	// Mutate the original: c's round-1 and round-2 accepts complete the
	// two-party instance.
	view := region.New(g, []graph.NodeID{"b"})
	a.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))
	a.OnMessage("c", message(2, view, "c", ops{"c": accept("vc"), "a": accept("va")}))
	if a.Decided() == nil {
		t.Fatal("original should have decided")
	}
	if c.Decided() != nil {
		t.Fatal("clone must not observe the original's decision")
	}
	// And the clone can take its own path.
	eff := c.OnMessage("c", message(1, view, "c", ops{"c": reject}))
	if eff.Resets != 1 {
		t.Errorf("clone should reset independently, got %+v", eff)
	}
}

func TestNewPanicsOnMissingConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic without ID/Graph")
		}
	}()
	New(Config{})
}

func TestDefaultPick(t *testing.T) {
	if DefaultPick(nil) != "" {
		t.Error("empty pick should be zero value")
	}
	if DefaultPick([]proto.Value{"b", "a", "c"}) != "a" {
		t.Error("DefaultPick should return the minimum")
	}
}

func TestMessageWireSizeAndString(t *testing.T) {
	g := lineABC()
	view := region.New(g, []graph.NodeID{"b"})
	m := message(1, view, "a", ops{"a": accept("va")})
	// round 4, view "b" 1+1, border "a" "c" 2·(1+1), a tag byte per slot
	// 2, and "va" 2+1.
	if got := m.WireSize(); got != 15 {
		t.Errorf("WireSize = %d, want 15", got)
	}
	bigger := message(1, view, "a", ops{"a": accept("va"), "c": accept("vc")})
	if got := bigger.WireSize(); got != 18 {
		t.Errorf("WireSize with a second accept = %d, want 18", got)
	}
	if got := message(1, view, "a", ops{"a": reject}).WireSize(); got != 12 {
		t.Errorf("WireSize of a reject = %d, want 12", got)
	}
	if m.String() == "" || m.Kind() != "cliffedge" {
		t.Error("String/Kind broken")
	}
	if k, r := m.TraceView(); k != "b" || r != 1 {
		t.Errorf("TraceView = %q,%d", k, r)
	}
}
