package sim

import (
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/region"
)

// TestDebugBlockCrash is a diagnostic twin of TestSmokeBlockCrash that
// dumps the final protocol state of every border node. It never fails; run
// with -v while debugging.
func TestDebugBlockCrash(t *testing.T) {
	g := graph.Grid(6, 6)
	block := graph.GridBlock(2, 2, 2)
	crashes := make([]CrashAt, len(block))
	for i, n := range block {
		crashes[i] = CrashAt{Time: int64(50 + 10*i), Node: n}
	}
	r, err := NewRunner(Config{Graph: g, Factory: coreFactory(g), Seed: 7, Crashes: crashes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("decisions=%d endTime=%d", len(res.Decisions), res.EndTime)
	for _, d := range res.SortedDecisions() {
		t.Logf("DECIDED %s view=%s val=%s", d.Node, d.Decision.View, d.Decision.Value)
	}
	for _, id := range region.New(g, block).Border() {
		n := res.Automata[g.Index(id)].(*core.Node)
		t.Logf("node %s decided=%v proposed=%v vp=%s round=%d maxView=%s crashedKnown=%v viol=%v",
			id, n.Decided() != nil, n.HasProposed(), n.CurrentView(), n.Round(),
			n.MaxView(), n.LocallyCrashed(), n.Violations())
	}
}
