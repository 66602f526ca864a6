package core

import (
	"slices"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// The canonical textual forms below are load-bearing: traces, golden
// hashes and the model checker's state deduplication all assume that
// rendering the same protocol state twice yields the same bytes. Opinion
// vectors render position by position from their masks and value column,
// which makes this true by construction (no map iteration order can leak),
// and these tests pin both the exact forms and their stability under
// repetition.

func TestRenderingDeterminism(t *testing.T) {
	g := lineABC()
	view := region.New(g, []graph.NodeID{"b"})
	m := message(2, view, "a", ops{"a": accept("va"), "c": reject})
	wantV := "[accept(va) reject]"
	if got := m.opinions(); got != wantV {
		t.Errorf("opinions = %q, want %q", got, wantV)
	}

	wantM := "[r=2 V={b} B=[a c] op=[accept(va) reject]]"
	if got := m.String(); got != wantM {
		t.Errorf("Message.String = %q, want %q", got, wantM)
	}
	wantFP := "2|b|[a c]|[accept(va) reject]"
	if got := MessageFingerprint(m); got != wantFP {
		t.Errorf("MessageFingerprint = %q, want %q", got, wantFP)
	}

	for i := 0; i < 100; i++ {
		if m.opinions() != wantV || m.String() != wantM || MessageFingerprint(m) != wantFP {
			t.Fatalf("rendering drifted on repetition %d", i)
		}
	}
}

// driveFingerprintNode builds node a on a fresh line graph and walks it
// through a fixed crash/message sequence, leaving non-trivial state in
// every fingerprint section: a live proposal, a received instance with
// partially-filled rounds and waiting sets, and a queued self-delivery.
func driveFingerprintNode() *Node {
	g := lineABC()
	n := New(Config{
		ID:      "a",
		Graph:   g,
		Propose: func(region.Region) proto.Value { return "va" },
	})
	n.Start()
	n.OnCrash("b")
	view := region.New(g, []graph.NodeID{"b"})
	n.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))
	return n
}

func TestFingerprintDeterminism(t *testing.T) {
	base := driveFingerprintNode()
	const want = "a#|p=true,va|r=2|vp=b|mx=b|cd=|lc=b|mon=b,c|rej=|" +
		"rcv={b;B=[a c];L=2;r1=[accept(va) accept(vc)];w1=;r2=[accept(va) accept(vc)];w2=c}|self="
	if got := base.Fingerprint(); got != want {
		t.Fatalf("fingerprint form changed\n got %q\nwant %q", got, want)
	}

	// Fingerprint is a pure read: repeated calls must not disturb state
	// or produce different bytes (received and rejected are maps; the
	// renderer must sort them).
	for i := 0; i < 50; i++ {
		if got := base.Fingerprint(); got != want {
			t.Fatalf("repeat %d: fingerprint drifted\n got %q\nwant %q", i, got, want)
		}
	}

	// Independently-constructed nodes fed the identical event sequence
	// must agree byte for byte — this is what lets the model checker
	// deduplicate interleavings across fresh Node instances.
	for i := 0; i < 20; i++ {
		if got := driveFingerprintNode().Fingerprint(); got != want {
			t.Fatalf("rebuild %d: fingerprint differs\n got %q\nwant %q", i, got, want)
		}
	}

	// A clone is behaviourally identical, so it must fingerprint
	// identically too.
	if got := base.Clone().Fingerprint(); got != want {
		t.Fatalf("clone fingerprint differs\n got %q\nwant %q", got, want)
	}

	// A node that has seen no crash holds no crash or monitored set; it
	// renders the set its Start subscribed to, its neighbours, and a crash
	// on a clone sizes the clone's sets, not the original's.
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("a", "c").AddEdge("b", "d").Build()
	idle := New(Config{ID: "a", Graph: g})
	const wantFresh = "a#|p=false,|r=0|vp=|mx=|cd=|lc=|mon=|rej=|rcv=|self="
	if got := idle.Fingerprint(); got != wantFresh {
		t.Fatalf("unstarted node\n got %q\nwant %q", got, wantFresh)
	}
	if got := monitorIDs(g, idle.Start()); !slices.Equal(got, []graph.NodeID{"b", "c"}) {
		t.Fatalf("Start monitors %v, want [b c]", got)
	}
	const wantIdle = "a#|p=false,|r=0|vp=|mx=|cd=|lc=|mon=b,c|rej=|rcv=|self="
	if got := idle.Fingerprint(); got != wantIdle {
		t.Fatalf("node without a crash\n got %q\nwant %q", got, wantIdle)
	}
	armed := idle.Clone()
	if got := armed.Fingerprint(); got != wantIdle {
		t.Fatalf("clone of a node without a crash\n got %q\nwant %q", got, wantIdle)
	}
	if got := monitorIDs(g, armed.OnCrash("b")); !slices.Equal(got, []graph.NodeID{"d"}) {
		t.Fatalf("the clone's first crash monitors %v, want [d]", got)
	}
	const wantArmed = "a#|p=true,repair(b)|r=1|vp=b|mx=b|cd=|lc=b|mon=b,c,d|rej=|" +
		"rcv={b;B=[a d];L=2;r1=[accept(repair(b)) ⊥];w1=d;r2=[⊥ ⊥];w2=a,d}|self="
	if got := armed.Fingerprint(); got != wantArmed {
		t.Fatalf("armed clone\n got %q\nwant %q", got, wantArmed)
	}
	if got := idle.Fingerprint(); got != wantIdle {
		t.Fatalf("a crash on the clone changed the original\n got %q\nwant %q", got, wantIdle)
	}
	if idle.st != nil || len(idle.LocallyCrashed()) != 0 {
		t.Fatalf("the clone's crash activated the original")
	}
	if eff := idle.Start(); len(eff.Monitor) != 0 {
		t.Fatalf("a second Start monitors %v again", eff.Monitor)
	}
}

// TestUnwrittenRoundsAreNotAllocated: an instance that only ever saw round
// 1 holds the masks of one round, and reading it — Fingerprint, Clone, the
// outgoing masks of a later round — renders the unwritten rounds as ⊥
// without allocating them. The fingerprint literal is the form an eagerly
// allocated (lastRound+1)×|B| matrix renders to.
func TestUnwrittenRoundsAreNotAllocated(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("c", "b").AddEdge("e", "b").Build()
	n := New(Config{ID: "a", Graph: g})
	n.Start()
	view := region.New(g, []graph.NodeID{"b"})
	border := view.BorderIndices()
	n.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))

	inst := instanceOf(n, view)
	if inst == nil {
		t.Fatal("instance missing")
	}
	if &inst.borderIdx[0] != &border[0] {
		t.Error("the instance should share the view's immutable border, not copy it")
	}
	allocated := func(inst *instance) int { return len(inst.bits) / (3 * inst.words) }
	if got := allocated(inst); got != 1 {
		t.Fatalf("after one round-1 message the instance holds %d rounds, want 1", got)
	}

	const want = "a#|p=false,|r=0|vp=|mx=|cd=|lc=|mon=b|rej=|" +
		"rcv={b;B=[a c e];L=3;r1=[⊥ accept(vc) ⊥];w1=a,e;r2=[⊥ ⊥ ⊥];w2=a,c,e;r3=[⊥ ⊥ ⊥];w3=a,c,e}|self="
	if got := n.Fingerprint(); got != want {
		t.Errorf("fingerprint\n got %q\nwant %q", got, want)
	}
	clone := n.Clone()
	if got := clone.Fingerprint(); got != want {
		t.Errorf("clone fingerprint\n got %q\nwant %q", got, want)
	}
	masks := make([]uint64, 2*inst.words)
	if inst.opinions(masks, 3); known(opinionsOf(3, masks, inst.values)) != 0 {
		t.Errorf("outgoing masks of an unwritten round = %x, want 3 ⊥ slots", masks)
	}
	if got := allocated(inst) + allocated(instanceOf(clone, view)); got != 2 {
		t.Errorf("reading allocated rounds: original and clone hold %d, want 1 each", got)
	}
}
