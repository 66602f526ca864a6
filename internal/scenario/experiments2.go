package scenario

import (
	"fmt"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/mck"
	"cliffedge/internal/predicate"
	"cliffedge/internal/region"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// T6Row is one row of the stable-predicate extension table: the crash
// workload of T2 re-run with marked (alive but withdrawn) nodes and
// cooperative gossip detection instead of an external failure detector.
type T6Row struct {
	K           int   // marked block side
	RegionSize  int   //
	Border      int   //
	Msgs        int   // protocol + announcement messages
	AnnounceMsg int   // announcement (detection) messages only
	Decisions   int   //
	DecideTime  int64 //
}

// ExperimentT6 sweeps the marked-block side on a fixed grid using the
// predicate extension.
func ExperimentT6(gridSide int, ks []int, seed int64) ([]T6Row, error) {
	var rows []T6Row
	for _, k := range ks {
		g := graph.Grid(gridSide, gridSide)
		block := graph.CenterBlock(gridSide, gridSide, k)
		injections := make([]sim.InjectAt, len(block))
		for i, n := range block {
			injections[i] = sim.InjectAt{Time: 10, Node: n, Payload: predicate.Mark{}}
		}
		r, err := sim.NewRunner(sim.Config{
			Graph:      g,
			Factory:    predicate.Factory(core.Config{Graph: g}),
			Seed:       seed,
			Injections: injections,
		})
		if err != nil {
			return nil, err
		}
		res, err := r.Run()
		if err != nil {
			return nil, err
		}
		announce := 0
		for _, e := range res.Events {
			if e.Kind == trace.KindSend && e.View == "" {
				announce++ // announcements carry no view annotation
			}
		}
		rows = append(rows, T6Row{
			K: k, RegionSize: len(block), Border: region.New(g, block).BorderLen(),
			Msgs: res.Stats.Messages, AnnounceMsg: announce,
			Decisions: res.Stats.Decisions, DecideTime: res.Stats.DecideTime,
		})
	}
	return rows, nil
}

// T7Row compares the corrected |B| flooding rounds against Algorithm 1's
// printed |B|−1 rounds under the crash race that breaks uniformity.
type T7Row struct {
	Mode          string // "uniform-|B|" or "literal-|B|-1"
	Runs          int    // random schedules executed
	CD5Violations int    // runs where uniform border agreement broke
	Decisions     int    //
	AvgRounds     float64
}

// ExperimentT7 replays the model checker's counterexample topology (path
// a-b-c-d, b then c crashing while the first agreement is in flight) over
// many random schedules, for both round counts. The literal count loses
// uniformity on a measurable fraction of schedules; the corrected count
// never does (and the mck experiment proves it over all schedules).
func ExperimentT7(runs int, seed int64) ([]T7Row, error) {
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build()
	var rows []T7Row
	for _, literal := range []bool{false, true} {
		mode := "uniform-|B|"
		if literal {
			mode = "literal-|B|-1"
		}
		row := T7Row{Mode: mode, Runs: runs}
		totalRounds := 0
		for i := 0; i < runs; i++ {
			lit := literal
			spec := Spec{
				Name:  fmt.Sprintf("T7-%s-%d", mode, i),
				Graph: g,
				// b crashes first; c crashes just as the {b} agreement is
				// completing, maximising the detect-vs-inflight race. The
				// window is tuned against the kernel's keyed latency
				// draws; retune it if the draw scheme ever changes.
				Crashes: []sim.CrashAt{{Time: 5, Node: "b"}, {Time: 10 + int64(i%8), Node: "c"}},
				Seed:    seed + int64(i),
				Factory: core.Factory(core.Config{Graph: g, LiteralPaperRounds: lit}),
			}
			res, rep, err := spec.RunChecked()
			if err != nil {
				return nil, err
			}
			row.Decisions += res.Stats.Decisions
			totalRounds += res.Stats.MaxRound
			for _, v := range rep.Violations {
				if v.Property == "CD5" {
					row.CD5Violations++
					break
				}
			}
		}
		row.AvgRounds = float64(totalRounds) / float64(runs)
		rows = append(rows, row)
	}
	return rows, nil
}

// MCRow is one row of the model-checking table: one scenario explored over
// all interleavings.
type MCRow struct {
	Scenario     string
	Literal      bool // Algorithm 1's printed round count?
	States       int
	Runs         int
	Truncated    bool
	Violations   int
	DecidedViews int
}

// ExperimentMC runs the bounded model checker over the exhaustive scenario
// suite, with the corrected round count (expected: zero violations) and
// once more with the literal count on the counterexample topology
// (expected: CD5 violations).
func ExperimentMC() ([]MCRow, error) {
	path4 := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build()
	triangle := graph.NewBuilder().
		AddEdge("a", "x").AddEdge("b", "x").AddEdge("c", "x").
		AddEdge("a", "b").AddEdge("b", "c").Build()
	shared := graph.NewBuilder().
		AddEdge("a", "b").AddEdge("b", "s").AddEdge("s", "c").AddEdge("c", "d").Build()
	cases := []struct {
		name    string
		g       *graph.Graph
		crashes []graph.NodeID
		literal bool
	}{
		{"path4-crash-b", path4, []graph.NodeID{"b"}, false},
		{"path4-grow-bc", path4, []graph.NodeID{"b", "c"}, false},
		{"triangle-border3", triangle, []graph.NodeID{"x"}, false},
		{"adjacent-domains", shared, []graph.NodeID{"b", "c"}, false},
		{"star-two-leaves", graph.Star(4), []graph.NodeID{graph.RingID(1), graph.RingID(2)}, false},
		{"path4-grow-bc-LITERAL", path4, []graph.NodeID{"b", "c"}, true},
	}
	var rows []MCRow
	for _, c := range cases {
		out, err := mck.Explore(mck.Config{
			Graph: c.g, Crashes: c.crashes, LiteralPaperRounds: c.literal,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, MCRow{
			Scenario: c.name, Literal: c.literal,
			States: out.StatesExplored, Runs: out.RunsCompleted,
			Truncated: out.Truncated, Violations: len(out.Violations),
			DecidedViews: len(out.DecidedViews),
		})
	}
	return rows, nil
}
