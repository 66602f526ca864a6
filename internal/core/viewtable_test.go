package core

import (
	"strings"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// TestViewTableIdentityIsTheFullKey drives the table with hashes forced
// equal for distinct keys: whatever the hash function does, a view is
// found, rejected and ignored by its key alone.
func TestViewTableIdentityIsTheFullKey(t *testing.T) {
	const h = 7 // every key below claims this hash
	var tab viewTable
	if tab.lookup(h, "a,b") != nil {
		t.Fatal("empty table found a view")
	}
	instAB, instC, instD := &instance{lastRound: 1}, &instance{lastRound: 2}, &instance{lastRound: 3}
	tab.insert(h, "a,b", instAB)
	tab.insert(h, "c", instC)
	tab.insert(h, "d", instD)
	tab.insert(h+1, "e", &instance{})
	if len(tab.slots) != 2 {
		t.Fatalf("three colliding keys and one other should fill 2 buckets, got %d", len(tab.slots))
	}
	for key, want := range map[string]*instance{"a,b": instAB, "c": instC, "d": instD} {
		if s := tab.lookup(h, key); s == nil || s.inst != want || s.key != key {
			t.Errorf("lookup(%q) = %+v, want the instance inserted under that key", key, s)
		}
	}
	if tab.lookup(h, "a") != nil || tab.lookup(h, "e") != nil {
		t.Error("lookup matched on the hash alone")
	}

	// Reject the middle of the chain (line 30): its neighbours stay live,
	// and a re-delivery for it still finds the rejected mark.
	tab.lookup(h, "c").inst = nil
	if s := tab.lookup(h, "c"); s == nil || s.inst != nil {
		t.Errorf("rejected view must stay in the table without an instance, got %+v", s)
	}
	if tab.lookup(h, "a,b").inst != instAB || tab.lookup(h, "d").inst != instD {
		t.Error("rejecting one key disturbed a colliding one")
	}

	live, rejected := 0, 0
	for s := range tab.all {
		if s.inst == nil {
			rejected++
		} else {
			live++
		}
	}
	if live != 3 || rejected != 1 {
		t.Errorf("all() yielded %d live, %d rejected; want 3, 1", live, rejected)
	}

	// A clone keeps keys, marks and buckets, and shares no instance.
	cl := tab.clone()
	if s := cl.lookup(h, "c"); s == nil || s.inst != nil {
		t.Error("clone lost the rejected mark")
	}
	if s := cl.lookup(h, "d"); s == nil || s.inst == instD || s.inst.lastRound != 3 {
		t.Errorf("clone must deep-copy instances, got %+v", s)
	}
	cl.lookup(h, "a,b").inst = nil
	if tab.lookup(h, "a,b").inst != instAB {
		t.Error("mutating the clone reached the original")
	}
}

// TestRejectedViewStaysRejectedBesideLiveOnes is the same life cycle
// through the node: a rejected view is ignored on re-delivery while the
// node's other views keep their instances.
func TestRejectedViewStaysRejectedBesideLiveOnes(t *testing.T) {
	// a borders {b} (border {a, c}) and {d} (border {a, e}); "b" < "d".
	g := graph.NewBuilder().
		AddEdge("a", "b").AddEdge("b", "c").
		AddEdge("a", "d").AddEdge("d", "e").
		Build()
	a := mkNode(t, g, "a", "va")
	a.Start()
	a.OnCrash("d") // proposes {d}
	low := region.New(g, []graph.NodeID{"b"})
	msg := message(1, low, "c", ops{"c": accept("vc")})
	if eff := a.OnMessage("c", msg); len(eff.Rejected) != 1 {
		t.Fatalf("expected {b} to be rejected, got %+v", eff)
	}
	if s := a.st.views.lookup(low.Hash(), low.Key()); s == nil || s.inst != nil {
		t.Fatalf("{b} should hold the rejected mark, got %+v", s)
	}
	if instanceOf(a, a.CurrentView()) == nil {
		t.Fatal("own instance for {d} must survive the rejection of {b}")
	}
	if eff := a.OnMessage("c", msg); !eff.IsZero() {
		t.Errorf("re-delivery for a rejected view must be ignored, got %+v", eff)
	}
	if len(a.Violations()) != 0 {
		t.Errorf("violations: %v", a.Violations())
	}
}

// TestDeliverRejectsForeignBorder: the merge is positional, so a vector
// indexed by another border of the same length must be refused, not merged
// into the wrong participants' slots. The foreign vector is about the same
// view, {b}, over a second graph in which b's border differs from the
// node's in its first or in its last node.
func TestDeliverRejectsForeignBorder(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("c", "b").AddEdge("e", "b").Build()
	view := region.New(g, []graph.NodeID{"b"})
	for name, foreign := range map[string][]graph.NodeID{
		"first element": {"0", "c", "e"},
		"last element":  {"a", "c", "z"},
	} {
		other := graph.NewBuilder()
		for _, q := range foreign {
			other.AddEdge(q, "b")
		}
		foreignView := region.New(other.Build(), []graph.NodeID{"b"})
		a := mkNode(t, g, "a", "va")
		a.Start()
		a.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))
		before := a.Fingerprint()
		o := ops{}
		for _, q := range foreign {
			o[q] = reject
		}
		a.OnMessage("e", message(1, foreignView, "c", o))
		if len(a.Violations()) != 1 {
			t.Errorf("%s: want one violation for a foreign border, got %v", name, a.Violations())
		}
		if a.Fingerprint() != before {
			t.Errorf("%s: a refused message must not change the instance", name)
		}
	}
}

// TestDeliverRejectsMalformedOpinions: Message's opinion fields are
// unexported, but Round and View are not, so a caller outside the package
// can hand a node a &Message{Round: 1, View: v} with no masks at all, and
// a message built here for one border can reach an instance of another
// length. The merge indexes the masks and the value column by the
// instance's border, so such a message must be refused with a violation —
// not merged, and not a panic.
func TestDeliverRejectsMalformedOpinions(t *testing.T) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("c", "b").AddEdge("e", "b").Build()
	view := region.New(g, []graph.NodeID{"b"}) // border a, c, e: one mask word
	for name, m := range map[string]*Message{
		"no masks":             {Round: 1, View: view},
		"masks of two words":   {Round: 1, View: view, masks: make([]uint64, 4), sender: 2},
		"a short value column": {Round: 1, View: view, masks: []uint64{0b010, 0}, values: make([]proto.Value, 2), sender: 2},
	} {
		a := mkNode(t, g, "a", "va")
		a.Start()
		a.OnMessage("c", message(1, view, "c", ops{"c": accept("vc")}))
		before := a.Fingerprint()
		a.OnMessage("c", m)
		if v := a.Violations(); len(v) != 1 || !strings.Contains(v[0], "do not fit |B|=3") {
			t.Errorf("%s: want one violation for opinions that do not fit the border, got %v", name, v)
		}
		if a.Fingerprint() != before {
			t.Errorf("%s: a refused message must not change the instance", name)
		}
	}
}
