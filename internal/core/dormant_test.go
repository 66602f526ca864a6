package core

import (
	"sync"
	"testing"
	"unsafe"

	"cliffedge/internal/graph"
)

// TestDormantNodeIsAFewWords pins what a node that hears of no crash and
// no message costs: its header, at most 64 bytes (the node that kept its
// protocol state inline was 616), and no state — Start, Decided and the
// accessors answer from the header. The first crash notification takes a
// state from the slab's pool, and the next run over the same slab takes
// the same states again instead of allocating.
func TestDormantNodeIsAFewWords(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 64 {
		t.Errorf("a dormant node is %d bytes, want at most 64", size)
	}
	g := graph.Grid(4, 4)
	var slab Slab
	run := func() (dormant, active []*Node) {
		factory := slab.Factory(Config{Graph: g})
		nodes := make([]*Node, g.Len())
		for i, id := range g.Nodes() {
			nodes[i] = factory(id).(*Node)
			nodes[i].Start()
		}
		q := graph.GridID(1, 1)
		for _, nb := range g.Neighbors(q) {
			nodes[g.Index(nb)].OnCrash(q)
		}
		for _, n := range nodes {
			if n.st == nil {
				dormant = append(dormant, n)
			} else {
				active = append(active, n)
			}
		}
		return dormant, active
	}
	dormant, active := run()
	if len(active) != 4 || len(dormant) != g.Len()-4 {
		t.Fatalf("%d active and %d dormant nodes, want the crashed node's 4 neighbours active", len(active), len(dormant))
	}
	for _, n := range dormant {
		if n.Decided() != nil || n.HasProposed() || !n.CurrentView().IsEmpty() || !n.MaxView().IsEmpty() ||
			n.Round() != 0 || len(n.LocallyCrashed()) != 0 || len(n.Violations()) != 0 {
			t.Fatalf("dormant node %s answers as if it had state", n.ID())
		}
		if n.st != nil {
			t.Fatalf("reading dormant node %s activated it", n.ID())
		}
	}
	states := append([]*state(nil), slab.states.states...)
	if len(states) != 4 {
		t.Fatalf("the pool holds %d states after one run, want 4", len(states))
	}
	_, active = run()
	for k, n := range active {
		if n.st != states[k] {
			t.Fatalf("the second run's node %s took a new state instead of a pooled one", n.ID())
		}
		if got := n.LocallyCrashed(); len(got) != 1 || got[0] != graph.GridID(1, 1) {
			t.Fatalf("node %s knows %v crashed in the second run, want only its neighbour", n.ID(), got)
		}
	}
	if len(slab.states.states) != 4 {
		t.Fatalf("the pool grew to %d states over two equal runs", len(slab.states.states))
	}
}

// TestNodesActivateConcurrently: the runtimes call a run's nodes from
// several goroutines (livenet's, the sharded simulator's lanes), so nodes
// of one slab take their states from its pool at once. Every node must
// get a state of its own. Run it with -race.
func TestNodesActivateConcurrently(t *testing.T) {
	g := graph.Grid(16, 16)
	var slab Slab
	for run := 0; run < 3; run++ {
		factory := slab.Factory(Config{Graph: g})
		nodes := make([]*Node, g.Len())
		for i, id := range g.Nodes() {
			nodes[i] = factory(id).(*Node)
		}
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(nodes); i += workers {
					n := nodes[i]
					n.Start()
					n.OnCrash(g.ID(g.NeighborIndices(int32(i))[0]))
				}
			}()
		}
		wg.Wait()
		seen := make(map[*state]bool, len(nodes))
		for _, n := range nodes {
			if n.st == nil || seen[n.st] || n.st.node != n {
				t.Fatalf("run %d: node %s has no state of its own", run, n.ID())
			}
			seen[n.st] = true
		}
		if len(slab.states.states) != len(nodes) {
			t.Fatalf("run %d: the pool holds %d states for %d active nodes", run, len(slab.states.states), len(nodes))
		}
	}
}
