package scenario

import (
	"fmt"
	"sort"

	"cliffedge/internal/baseline"
	"cliffedge/internal/check"
	"cliffedge/internal/graph"
	"cliffedge/internal/region"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// This file implements the experiments (ids F1a–F3, T1–T7, MC, as listed
// in cmd/cliffedge-bench). Each Experiment* function produces the rows of
// one table; cmd/cliffedge-bench renders them and bench_test.go wraps them
// in testing.B harnesses.

// T1Row is one row of the locality table: fixed 3×3 crashed block, growing
// system size. Cliff-edge cost must stay flat; global consensus grows
// superlinearly (and is skipped past GlobalMaxN).
type T1Row struct {
	Side               int   // grid side; N = Side²
	N                  int   //
	CliffMsgs          int   //
	CliffBytes         int   //
	CliffParticipants  int   // correct nodes that sent or received anything
	CliffDecideTime    int64 //
	GlobalMsgs         int   //
	GlobalBytes        int   //
	GlobalParticipants int   //
	GlobalDecideTime   int64 //
	GlobalSkipped      bool  // true when N > GlobalMaxN
}

// ExperimentT1 sweeps grid sides with a fixed, centred 3×3 crashed block.
// globalMaxN bounds the whole-system baseline (its flooding rounds cost
// Θ(N²) messages each, which stops being runnable long before the
// cliff-edge protocol notices the system grew).
func ExperimentT1(sides []int, globalMaxN int, seed int64) ([]T1Row, error) {
	var rows []T1Row
	for _, side := range sides {
		g := graph.Grid(side, side)
		block := graph.CenterBlock(side, side, 3)
		crashes := CrashAll(block, 10)

		spec := Spec{Name: fmt.Sprintf("T1-side%d", side), Graph: g, Crashes: crashes, Seed: seed}
		res, rep, err := spec.RunChecked()
		if err != nil {
			return nil, err
		}
		if !rep.Ok() {
			return nil, fmt.Errorf("T1 side=%d: %s", side, rep)
		}
		row := T1Row{
			Side: side, N: side * side,
			CliffMsgs: res.Stats.Messages, CliffBytes: res.Stats.Bytes,
			CliffParticipants: res.Stats.Participants, CliffDecideTime: res.Stats.DecideTime,
		}

		if side*side <= globalMaxN {
			gr, err := sim.NewRunner(sim.Config{
				Graph: g, Factory: baseline.GlobalFactory(g), Seed: seed, Crashes: crashes,
				DiscardEvents: true, // millions of sends; count them, don't keep them
			})
			if err != nil {
				return nil, err
			}
			gres, err := gr.Run()
			if err != nil {
				return nil, err
			}
			row.GlobalMsgs = gres.Stats.Messages
			row.GlobalBytes = gres.Stats.Bytes
			row.GlobalParticipants = gres.Stats.Participants
			row.GlobalDecideTime = gres.Stats.DecideTime
		} else {
			row.GlobalSkipped = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// T2Row is one row of the region-cost table: fixed grid, growing crashed
// block. Rounds = |border|−1 and messages = Θ(border³) are the analytic
// expectations (b−1 rounds, each flooding b opinion vectors to b peers).
type T2Row struct {
	K          int   // block side; region size = K²
	RegionSize int   //
	Border     int   // |border(region)| = participants
	Msgs       int   //
	Bytes      int   //
	MaxRound   int   //
	DecideTime int64 //
	Decisions  int   //
}

// ExperimentT2 sweeps the crashed-block side on a fixed grid.
func ExperimentT2(gridSide int, ks []int, seed int64) ([]T2Row, error) {
	var rows []T2Row
	for _, k := range ks {
		if k+2 > gridSide {
			return nil, fmt.Errorf("T2: block %d does not fit in grid %d with a border", k, gridSide)
		}
		spec := GridBlockSpec(gridSide, gridSide, k, seed)
		res, rep, err := spec.RunChecked()
		if err != nil {
			return nil, err
		}
		if !rep.Ok() {
			return nil, fmt.Errorf("T2 k=%d: %s", k, rep)
		}
		block := graph.CenterBlock(gridSide, gridSide, k)
		rows = append(rows, T2Row{
			K: k, RegionSize: len(block), Border: region.New(spec.Graph, block).BorderLen(),
			Msgs: res.Stats.Messages, Bytes: res.Stats.Bytes,
			MaxRound: res.Stats.MaxRound, DecideTime: res.Stats.DecideTime,
			Decisions: res.Stats.Decisions,
		})
	}
	return rows, nil
}

// T3Row is one row of the latency-sensitivity table.
type T3Row struct {
	NetMax     int64 // network latency drawn from [1, NetMax]
	FDMax      int64 // detection latency drawn from [1, FDMax]
	DecideTime int64 // virtual time of the last decision
	Msgs       int   //
	Resets     int   //
}

// ExperimentT3 sweeps network and failure-detector latencies on a fixed
// 3×3 block workload.
func ExperimentT3(netMaxes, fdMaxes []int64, seed int64) ([]T3Row, error) {
	var rows []T3Row
	for _, nm := range netMaxes {
		for _, fm := range fdMaxes {
			g := graph.Grid(12, 12)
			spec := Spec{
				Name:       fmt.Sprintf("T3-net%d-fd%d", nm, fm),
				Graph:      g,
				Crashes:    CrashAll(graph.CenterBlock(12, 12, 3), 10),
				Seed:       seed,
				NetLatency: sim.Uniform{Min: 1, Max: nm},
				FDLatency:  sim.Uniform{Min: 1, Max: fm},
			}
			res, rep, err := spec.RunChecked()
			if err != nil {
				return nil, err
			}
			if !rep.Ok() {
				return nil, fmt.Errorf("T3 net=%d fd=%d: %s", nm, fm, rep)
			}
			rows = append(rows, T3Row{
				NetMax: nm, FDMax: fm,
				DecideTime: res.Stats.DecideTime,
				Msgs:       res.Stats.Messages,
				Resets:     res.Stats.Resets,
			})
		}
	}
	return rows, nil
}

// T4Row compares the full protocol against the no-arbitration ablation on
// conflict-heavy workloads.
type T4Row struct {
	Scenario         string
	Arbitration      bool
	Runs             int
	ClustersTotal    int
	ClustersDecided  int
	Decisions        int
	SafetyViolations int
}

// ExperimentT4 runs Fig. 2-style adjacent-domain workloads and randomized
// conflicting regions with and without the ranking/reject mechanism. The
// ablation cannot violate safety (it only ever stalls — nodes wait forever
// on peers that silently moved on) but it loses Progress.
func ExperimentT4(runs int, seed int64) ([]T4Row, error) {
	type workload struct {
		name string
		mk   func(s int64) Spec
	}
	workloads := []workload{
		{"fig2-adjacent-domains", func(s int64) Spec { return Fig2(s) }},
		{"random-2regions-grid10", func(s int64) Spec {
			return Randomized(graph.Grid(10, 10), s, 2, 6, 10, 40)
		}},
	}
	var rows []T4Row
	for _, w := range workloads {
		for _, arb := range []bool{true, false} {
			row := T4Row{Scenario: w.name, Arbitration: arb, Runs: runs}
			for i := 0; i < runs; i++ {
				spec := w.mk(seed + int64(i))
				spec.DisableArbitration = !arb
				res, rep, err := spec.RunChecked()
				if err != nil {
					return nil, err
				}
				row.ClustersTotal += rep.Clusters
				row.DecidedClustersAdd(&rep)
				row.Decisions += res.Stats.Decisions
				for _, v := range rep.Violations {
					// CD7 (progress) loss is the expected ablation cost;
					// anything else is a safety breach and must not occur.
					if v.Property != "CD7" && v.Property != "CD4" {
						row.SafetyViolations++
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// DecidedClustersAdd folds one report into the row.
func (r *T4Row) DecidedClustersAdd(rep *check.Report) {
	r.ClustersDecided += rep.DecidedClusters
}

// T5Row measures cascades: crashes that keep extending the region while
// agreement is underway.
type T5Row struct {
	Depth      int   // extra nodes crashing one by one after the base block
	Msgs       int   //
	Proposals  int   //
	Resets     int   //
	Rejections int   //
	Decisions  int   //
	DecideTime int64 //
}

// ExperimentT5 sweeps cascade depth on a 9×9 grid with a 2×2 base block.
func ExperimentT5(depths []int, seed int64) ([]T5Row, error) {
	var rows []T5Row
	for _, d := range depths {
		spec := CascadeSpec(9, 9, 2, d, 30, seed)
		res, rep, err := spec.RunChecked()
		if err != nil {
			return nil, err
		}
		if !rep.Ok() {
			return nil, fmt.Errorf("T5 depth=%d: %s", d, rep)
		}
		rows = append(rows, T5Row{
			Depth: d, Msgs: res.Stats.Messages,
			Proposals: res.Stats.Proposals, Resets: res.Stats.Resets,
			Rejections: res.Stats.Rejections, Decisions: res.Stats.Decisions,
			DecideTime: res.Stats.DecideTime,
		})
	}
	return rows, nil
}

// F1aResult summarises the Fig. 1(a) reproduction.
type F1aResult struct {
	Stats           trace.Stats
	DecidersF1      []graph.NodeID
	DecidersF2      []graph.NodeID
	CrossHemisphere int // messages between the two hemispheres (must be 0)
	Report          check.Report
}

// ExperimentF1a runs Fig. 1(a) and verifies the two independent local
// agreements.
func ExperimentF1a(seed int64) (*F1aResult, error) {
	spec := Fig1a(seed)
	res, rep, err := spec.RunChecked()
	if err != nil {
		return nil, err
	}
	g, f1, f2 := graph.Fig1()
	r1, r2 := region.New(g, f1), region.New(g, f2)
	out := &F1aResult{Stats: res.Stats, Report: rep}
	for _, d := range res.SortedDecisions() {
		switch {
		case d.Decision.View.Equal(r1):
			out.DecidersF1 = append(out.DecidersF1, d.Node)
		case d.Decision.View.Equal(r2):
			out.DecidersF2 = append(out.DecidersF2, d.Node)
		}
	}
	europe := graph.ToSet(append(append([]graph.NodeID{}, f1...), r1.Border()...))
	pacific := graph.ToSet(append(append([]graph.NodeID{}, f2...), r2.Border()...))
	for _, e := range res.Events {
		if e.Kind == trace.KindSend &&
			((europe[e.Node] && pacific[e.Peer]) || (pacific[e.Node] && europe[e.Peer])) {
			out.CrossHemisphere++
		}
	}
	return out, nil
}

// F1bResult summarises the Fig. 1(b) reproduction across seeds: the two
// legitimate outcomes are convergence on the grown region F3 (the paper's
// narrative) or an early unanimous decision on F1 when paris's accept
// propagated before its crash was used.
type F1bResult struct {
	Seeds       int
	ConvergedF3 int // runs where F3 = F1 ∪ {paris} was decided
	EarlyF1     int // runs where F1 was decided (paris accepted, then died)
	Rejections  int // total arbitration rejections observed
	Violations  int // must be 0
}

// ExperimentF1b runs Fig. 1(b) for `seeds` seeds.
func ExperimentF1b(seeds int) (*F1bResult, error) {
	g, f1, _ := graph.Fig1()
	rF1 := region.New(g, f1)
	rF3 := region.New(g, append(append([]graph.NodeID{}, f1...), "paris"))
	out := &F1bResult{Seeds: seeds}
	for s := 0; s < seeds; s++ {
		spec := Fig1b(int64(s))
		res, rep, err := spec.RunChecked()
		if err != nil {
			return nil, err
		}
		out.Violations += len(rep.Violations)
		out.Rejections += res.Stats.Rejections
		sawF3, sawF1 := false, false
		for _, d := range res.Decisions {
			if d.View.Equal(rF3) {
				sawF3 = true
			}
			if d.View.Equal(rF1) {
				sawF1 = true
			}
		}
		if sawF3 {
			out.ConvergedF3++
		} else if sawF1 {
			out.EarlyF1++
		}
	}
	return out, nil
}

// F2Result summarises the Fig. 2 reproduction: which of the four adjacent
// faulty domains reached decisions.
type F2Result struct {
	Stats          trace.Stats
	DecidedViews   []string
	Clusters       int
	DecidedCluster bool
	Report         check.Report
}

// ExperimentF2 runs the adjacent-domains cluster of Fig. 2.
func ExperimentF2(seed int64) (*F2Result, error) {
	spec := Fig2(seed)
	res, rep, err := spec.RunChecked()
	if err != nil {
		return nil, err
	}
	views := map[string]bool{}
	for _, d := range res.Decisions {
		views[d.View.Key()] = true
	}
	out := &F2Result{Stats: res.Stats, Clusters: rep.Clusters,
		DecidedCluster: rep.DecidedClusters == rep.Clusters, Report: rep}
	for k := range views {
		out.DecidedViews = append(out.DecidedViews, k)
	}
	sort.Strings(out.DecidedViews)
	return out, nil
}

// F3Result summarises the overlap stress (Fig. 3 / Theorem 3): randomized
// cascading regions, checked for view convergence on every run.
type F3Result struct {
	Seeds      int
	Decisions  int
	Overlaps   int // decided-view pairs that overlapped (all must be equal)
	Violations int // must be 0
}

// ExperimentF3 runs `seeds` randomized overlap-stress scenarios.
func ExperimentF3(seeds int) (*F3Result, error) {
	g := graph.Grid(10, 10)
	out := &F3Result{Seeds: seeds}
	for s := 0; s < seeds; s++ {
		spec := Randomized(g, int64(s), 3, 6, 10, 80)
		res, rep, err := spec.RunChecked()
		if err != nil {
			return nil, err
		}
		out.Violations += len(rep.Violations)
		out.Decisions += res.Stats.Decisions
		ds := res.SortedDecisions()
		for i := 0; i < len(ds); i++ {
			for j := i + 1; j < len(ds); j++ {
				if ds[i].Decision.View.Intersects(ds[j].Decision.View) {
					out.Overlaps++
				}
			}
		}
	}
	return out, nil
}
