package viz

import (
	"strings"
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

func run(t *testing.T) (*sim.Result, *graph.Graph) {
	t.Helper()
	g := graph.Grid(6, 6)
	r, err := sim.NewRunner(sim.Config{
		Graph: g,
		Factory: func(id graph.NodeID) proto.Automaton {
			return core.New(core.Config{ID: id, Graph: g})
		},
		Seed:    1,
		Crashes: []sim.CrashAt{{Time: 10, Node: graph.GridID(2, 2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func TestGridMap(t *testing.T) {
	res, _ := run(t)
	m := GridMap(6, 6, res.Events, res.Crashed)
	lines := strings.Split(strings.TrimRight(m, "\n"), "\n")
	if len(lines) != 7 { // 6 rows + legend
		t.Fatalf("got %d lines:\n%s", len(lines), m)
	}
	if !strings.Contains(m, "#") {
		t.Error("crashed node missing")
	}
	grid := strings.Join(lines[:6], "\n") // exclude the legend row
	if strings.Count(grid, "D") != 4 {
		t.Errorf("want 4 deciders, map:\n%s", m)
	}
	if !strings.Contains(lines[6], "legend") {
		t.Error("legend missing")
	}
	// Locality visible: corners untouched.
	if lines[0][0] != byte('\xc2') && !strings.HasPrefix(lines[0], "·") {
		// first rune must be the untouched dot
		r := []rune(lines[0])
		if r[0] != '·' {
			t.Errorf("corner should be untouched, got %q", r[0])
		}
	}
}

func TestFlowSummary(t *testing.T) {
	res, _ := run(t)
	s := FlowSummary(res.Events, 3)
	if !strings.Contains(s, "sent=") || !strings.Contains(s, "nodes exchanged messages") {
		t.Errorf("flow summary:\n%s", s)
	}
	// top=3 limits the listing to 3 node rows + the footer.
	if lines := strings.Split(strings.TrimRight(s, "\n"), "\n"); len(lines) != 4 {
		t.Errorf("want 3 rows + footer, got %d:\n%s", len(lines), s)
	}
}

func TestTimeline(t *testing.T) {
	res, _ := run(t)
	s := Timeline(res.Events, 40)
	for _, frag := range []string{"crash", "decide", "t=0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("timeline missing %q:\n%s", frag, s)
		}
	}
	if Timeline(nil, 10) != "(empty trace)\n" {
		t.Error("empty timeline")
	}
}

func TestTimelineBucketsEdge(t *testing.T) {
	events := []trace.Event{{Kind: trace.KindCrash, Node: "x", Time: 0}}
	s := Timeline(events, 5)
	if !strings.Contains(s, "crash") {
		t.Errorf("zero-time trace: %s", s)
	}
}
