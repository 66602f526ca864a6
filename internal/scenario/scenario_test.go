package scenario

import (
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/region"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// requireOk fails the test with the full violation list if the report is
// not clean.
func requireOk(t *testing.T, spec Spec) {
	t.Helper()
	res, rep, err := spec.RunChecked()
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if !rep.Ok() {
		for _, e := range res.Events {
			t.Log(e)
		}
		t.Fatalf("%s: %s", spec.Name, rep)
	}
}

func TestFig1aIndependentAgreements(t *testing.T) {
	spec := Fig1a(42)
	res, rep, err := spec.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("properties violated: %s", rep)
	}
	g, f1, f2 := graph.Fig1()
	r1, r2 := region.New(g, f1), region.New(g, f2)

	// Every border node of each region decides exactly its region.
	wantDeciders := map[graph.NodeID]region.Region{}
	for _, n := range r1.Border() {
		wantDeciders[n] = r1
	}
	for _, n := range r2.Border() {
		wantDeciders[n] = r2
	}
	if len(res.Decisions) != len(wantDeciders) {
		t.Fatalf("got %d decisions, want %d", len(res.Decisions), len(wantDeciders))
	}
	for _, d := range res.SortedDecisions() {
		want, ok := wantDeciders[d.Node]
		if !ok {
			t.Errorf("unexpected decider %s", d.Node)
			continue
		}
		if !d.Decision.View.Equal(want) {
			t.Errorf("%s decided %s, want %s", d.Node, d.Decision.View, want)
		}
	}

	// Locality, concretely: no message crosses hemispheres (e.g. madrid
	// and vancouver never talk, §2.1).
	europe := graph.ToSet(append(append([]graph.NodeID{}, f1...), r1.Border()...))
	pacific := graph.ToSet(append(append([]graph.NodeID{}, f2...), r2.Border()...))
	for _, e := range res.Events {
		if e.Kind != trace.KindSend {
			continue
		}
		if (europe[e.Node] && pacific[e.Peer]) || (pacific[e.Node] && europe[e.Peer]) {
			t.Errorf("cross-region message %s→%s violates locality", e.Node, e.Peer)
		}
	}
}

func TestFig1bConvergesOnF3(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		spec := Fig1b(seed)
		res, rep, err := spec.RunChecked()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: %s", seed, rep)
		}
		g, f1, _ := graph.Fig1()
		f3 := region.New(g, append(append([]graph.NodeID{}, f1...), "paris"))

		// All decided views must be F1 or F3 (CD6 forbids anything else
		// overlapping), and whenever the run converges on F3 its full
		// border {berlin, london, madrid, roma} decides.
		sawF3 := false
		for _, d := range res.SortedDecisions() {
			if d.Decision.View.Equal(f3) {
				sawF3 = true
			} else if d.Decision.View.Equal(region.New(g, f1)) {
				// Legitimate when every border node of F1 (including
				// paris) accepted before paris crashed.
			} else {
				t.Errorf("seed %d: %s decided unexpected view %s", seed, d.Node, d.Decision.View)
			}
		}
		if sawF3 {
			for _, n := range f3.Border() {
				if res.Decisions[n] == nil {
					t.Errorf("seed %d: border node %s of F3 did not decide", seed, n)
				}
			}
		}
	}
}

func TestFig2ClusterProgress(t *testing.T) {
	spec := Fig2(0)
	res, rep, err := spec.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("properties violated: %s", rep)
	}
	if rep.Clusters != 1 {
		t.Fatalf("expected 1 faulty cluster, got %d", rep.Clusters)
	}
	if rep.DecidedClusters != 1 {
		t.Fatalf("cluster reached no decision")
	}
	// The shared border nodes rank F1 = {f1-0,f1-1,f1-2} and
	// F3 = {f3-0..f3-3} above their smaller neighbours, so both get
	// decided; F2 and F4 proposals are rejected.
	g, domains := graph.Fig2()
	d1 := region.New(g, domains[0])
	d3 := region.New(g, domains[2])
	decidedViews := map[string]bool{}
	for _, d := range res.SortedDecisions() {
		decidedViews[d.Decision.View.Key()] = true
	}
	if !decidedViews[d1.Key()] || !decidedViews[d3.Key()] {
		t.Errorf("expected decisions on F1 and F3, got %v", decidedViews)
	}
}

func TestSimultaneousBlocksOnGrid(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		spec := GridBlockSpec(8, 8, k, int64(k))
		res, rep, err := spec.RunChecked()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("k=%d: %s", k, rep)
		}
		g := spec.Graph
		block := graph.CenterBlock(8, 8, k)
		border := region.New(g, block).Border()
		if len(res.Decisions) != len(border) {
			t.Fatalf("k=%d: got %d decisions, want %d", k, len(res.Decisions), len(border))
		}
		for _, d := range res.SortedDecisions() {
			if d.Decision.View.Len() != len(block) {
				t.Errorf("k=%d: %s decided %s, want the full block", k, d.Node, d.Decision.View)
			}
		}
	}
}

// TestStaggeredBlockProperties documents that staggered crashes may settle
// on intermediate sub-regions — the outcome is not pinned, but CD1–CD7
// must hold for every interleaving.
func TestStaggeredBlockProperties(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := graph.Grid(6, 6)
		var crashes []sim.CrashAt
		for i, n := range graph.GridBlock(2, 2, 2) {
			crashes = append(crashes, sim.CrashAt{Time: 50 + int64(i)*10, Node: n})
		}
		spec := Spec{
			Name:    "staggered-block",
			Graph:   g,
			Crashes: crashes,
			Seed:    seed,
		}
		requireOk(t, spec)
	}
}

func TestRandomizedStressOnGrid(t *testing.T) {
	g := graph.Grid(10, 10)
	for seed := int64(0); seed < 40; seed++ {
		requireOk(t, Randomized(g, seed, 3, 6, 10, 80))
	}
}

func TestRandomizedStressOnTorus(t *testing.T) {
	g := graph.Torus(8, 8)
	for seed := int64(0); seed < 25; seed++ {
		requireOk(t, Randomized(g, seed, 2, 8, 10, 60))
	}
}

func TestRandomizedStressOnErdosRenyi(t *testing.T) {
	g := graph.ErdosRenyi(60, 0.06, 3)
	for seed := int64(0); seed < 25; seed++ {
		requireOk(t, Randomized(g, seed, 2, 10, 10, 60))
	}
}

func TestRandomizedStressOnSmallWorld(t *testing.T) {
	g := graph.SmallWorld(60, 4, 0.2, 5)
	for seed := int64(0); seed < 25; seed++ {
		requireOk(t, Randomized(g, seed, 3, 6, 10, 60))
	}
}

func TestRandomizedStressOnClustered(t *testing.T) {
	g := graph.Clustered(4, 15, 2, 0.25, 11)
	for seed := int64(0); seed < 25; seed++ {
		requireOk(t, Randomized(g, seed, 2, 12, 10, 60))
	}
}

func TestCascadeDepths(t *testing.T) {
	for depth := 0; depth <= 5; depth++ {
		requireOk(t, CascadeSpec(9, 9, 2, depth, 30, int64(depth)))
	}
}

// TestStarLeafCrash exercises the |border(V)| = 1 edge case: a leaf's only
// border is the hub, whose 1-participant instance decides immediately.
func TestStarLeafCrash(t *testing.T) {
	g := graph.Star(6)
	leaf := graph.RingID(3)
	spec := Spec{
		Name:    "star-leaf",
		Graph:   g,
		Crashes: []sim.CrashAt{{Time: 5, Node: leaf}},
		Seed:    1,
	}
	res, rep, err := spec.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("%s", rep)
	}
	hub := graph.RingID(0)
	d := res.Decisions[hub]
	if d == nil {
		t.Fatalf("hub did not decide")
	}
	if d.View.Len() != 1 || !d.View.Contains(leaf) {
		t.Errorf("hub decided %s, want {%s}", d.View, leaf)
	}
	if res.Stats.Messages != 0 {
		t.Errorf("1-participant agreement should send no messages, sent %d", res.Stats.Messages)
	}
}

// TestWholeRingCrash crashes everything: no survivors, no decisions, no
// violations (CD7 is vacuous without a correct border).
func TestWholeRingCrash(t *testing.T) {
	g := graph.Ring(8)
	spec := Spec{
		Name:    "total-failure",
		Graph:   g,
		Crashes: CrashAll(g.Nodes(), 5),
		Seed:    1,
	}
	res, rep, err := spec.RunChecked()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("%s", rep)
	}
	if len(res.Decisions) != 0 {
		t.Errorf("no survivors, but %d decisions", len(res.Decisions))
	}
}

func TestRandomizedStressOnBarabasiAlbert(t *testing.T) {
	g := graph.BarabasiAlbert(60, 2, 9)
	for seed := int64(0); seed < 20; seed++ {
		requireOk(t, Randomized(g, seed, 2, 8, 10, 60))
	}
}

func TestRandomizedStressOnHypercube(t *testing.T) {
	g := graph.Hypercube(6)
	for seed := int64(0); seed < 20; seed++ {
		requireOk(t, Randomized(g, seed, 2, 8, 10, 60))
	}
}
