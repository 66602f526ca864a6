// Package scenario assembles runnable failure scenarios: a topology, a
// crash schedule (timed and/or trigger-based), latency bands and an
// automaton factory. It provides the paper's figure scenarios (Fig. 1(a),
// Fig. 1(b), Fig. 2), randomized correlated-failure generators for
// property-based testing, and the parameter sweeps behind the experiment
// tables cmd/cliffedge-bench prints.
package scenario

import (
	"fmt"
	"math/rand"
	"slices"

	"cliffedge/internal/check"
	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// Spec is a fully specified runnable scenario.
type Spec struct {
	Name     string
	Graph    *graph.Graph
	Crashes  []sim.CrashAt
	Triggers []sim.Trigger
	Seed     int64
	// NetLatency and FDLatency are latency bands; the zero band means
	// sim.Uniform{1, 10}.
	NetLatency sim.Uniform
	FDLatency  sim.Uniform
	// Factory defaults to the cliff-edge core protocol.
	Factory proto.Factory
	// DisableArbitration runs the core without the ranking/reject
	// mechanism (T4 ablation). Ignored when Factory is set.
	DisableArbitration bool
	// Shards selects the kernel's parallelism (sim.Config.Shards): 0/1
	// sequential, sim.AutoShards per-domain-group, n explicit. The trace
	// is byte-identical at every setting.
	Shards int
}

// CoreFactory builds the standard cliff-edge automaton factory for g.
func CoreFactory(g *graph.Graph) proto.Factory {
	return core.Factory(core.Config{Graph: g})
}

func (s Spec) factory() proto.Factory {
	if s.Factory != nil {
		return s.Factory
	}
	return core.Factory(core.Config{Graph: s.Graph, DisableArbitration: s.DisableArbitration})
}

// Run executes the scenario to quiescence.
func (s Spec) Run() (*sim.Result, error) {
	r, err := sim.NewRunner(sim.Config{
		Graph:      s.Graph,
		Factory:    s.factory(),
		Seed:       s.Seed,
		NetLatency: s.NetLatency,
		FDLatency:  s.FDLatency,
		Crashes:    s.Crashes,
		Triggers:   s.Triggers,
		Shards:     s.Shards,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	res, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return res, nil
}

// RunChecked executes the scenario and verifies CD1–CD7 plus internal
// automaton invariants over the resulting trace.
func (s Spec) RunChecked() (*sim.Result, check.Report, error) {
	res, err := s.Run()
	if err != nil {
		return nil, check.Report{}, err
	}
	rep := check.Run(s.Graph, res.Events)
	automata := make(map[graph.NodeID]proto.Automaton, len(res.Automata))
	for i, a := range res.Automata {
		automata[s.Graph.ID(int32(i))] = a
	}
	rep.Violations = append(rep.Violations, check.AutomataViolations(automata)...)
	return res, rep, nil
}

// CrashAll schedules every node in nodes to crash at time t — the
// simultaneous correlated failure that guarantees full convergence on the
// whole region (no proper sub-region can assemble an all-accept vector).
func CrashAll(nodes []graph.NodeID, t int64) []sim.CrashAt {
	out := make([]sim.CrashAt, len(nodes))
	for i, n := range nodes {
		out[i] = sim.CrashAt{Time: t, Node: n}
	}
	return out
}

// Fig1a is the paper's Fig. 1(a): the European region F1 and the Pacific
// region F2 crash independently; their borders must reach two independent
// local agreements with no cross-region traffic.
func Fig1a(seed int64) Spec {
	g, f1, f2 := graph.Fig1()
	crashes := append(CrashAll(f1, 10), CrashAll(f2, 10)...)
	return Spec{Name: "fig1a", Graph: g, Crashes: crashes, Seed: seed}
}

// Fig1b is the paper's Fig. 1(b): F1 crashes, and paris — a border node of
// F1 — crashes right after madrid proposes F1, growing the region into
// F3 = F1 ∪ {paris} and forcing the conflicting views of §2.1 to converge.
func Fig1b(seed int64) Spec {
	g, f1, _ := graph.Fig1()
	return Spec{
		Name:    "fig1b",
		Graph:   g,
		Crashes: CrashAll(f1, 10),
		Triggers: []sim.Trigger{{
			Node:  "paris",
			Delay: 1,
			When: func(e trace.Event) bool {
				return e.Kind == trace.KindPropose && e.Node == "madrid"
			},
		}},
		Seed: seed,
	}
}

// Fig2 is the paper's Fig. 2: a cluster of four transitively adjacent
// faulty domains F1 ‖ F2 ‖ F3 ‖ F4 crashing together. Progress (CD7)
// guarantees at least one decision per cluster; view convergence (CD6)
// keeps the overlapping borders consistent.
func Fig2(seed int64) Spec {
	g, domains := graph.Fig2()
	var crashes []sim.CrashAt
	for _, d := range domains {
		crashes = append(crashes, CrashAll(d, 10)...)
	}
	return Spec{Name: "fig2", Graph: g, Crashes: crashes, Seed: seed}
}

// RandomConnectedRegion grows a random connected region of the requested
// size from a random start node, by repeatedly annexing a random neighbour
// of the region. Returns fewer nodes if the component is exhausted.
func RandomConnectedRegion(g *graph.Graph, rng *rand.Rand, size int) []graph.NodeID {
	nodes := g.Nodes()
	if len(nodes) == 0 || size <= 0 {
		return nil
	}
	start := int32(rng.Intn(len(nodes)))
	in := map[int32]bool{start: true}
	frontier := slices.Clone(g.NeighborIndices(start))
	out := []graph.NodeID{nodes[start]}
	for len(out) < size && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		n := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if in[n] {
			continue
		}
		in[n] = true
		out = append(out, nodes[n])
		frontier = append(frontier, g.NeighborIndices(n)...)
	}
	return out
}

// Randomized builds a stress scenario: `regions` random connected regions
// of up to maxSize nodes each crash at random times within [start,
// start+window). Regions may overlap, merge and grow mid-protocol — the
// Fig. 3 / Theorem 3 stress for view convergence.
func Randomized(g *graph.Graph, seed int64, regions, maxSize int, start, window int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[graph.NodeID]bool)
	var crashes []sim.CrashAt
	for i := 0; i < regions; i++ {
		size := 1 + rng.Intn(maxSize)
		for _, n := range RandomConnectedRegion(g, rng, size) {
			if seen[n] {
				continue
			}
			seen[n] = true
			t := start
			if window > 0 {
				t += rng.Int63n(window)
			}
			crashes = append(crashes, sim.CrashAt{Time: t, Node: n})
		}
	}
	return Spec{
		Name:    fmt.Sprintf("randomized(seed=%d,regions=%d,maxSize=%d)", seed, regions, maxSize),
		Graph:   g,
		Crashes: crashes,
		Seed:    seed,
	}
}

// GridBlockSpec crashes the k×k centre block of a rows×cols grid at time
// t, simultaneously — the workload of the locality experiments (T1, T2).
func GridBlockSpec(rows, cols, k int, seed int64) Spec {
	g := graph.Grid(rows, cols)
	return Spec{
		Name:    fmt.Sprintf("grid%dx%d-block%d", rows, cols, k),
		Graph:   g,
		Crashes: CrashAll(graph.CenterBlock(rows, cols, k), 10),
		Seed:    seed,
	}
}

// CascadeSpec crashes a base block simultaneously, then a chain of `depth`
// additional nodes adjacent to the previous region one by one, each
// triggered by the first decision-free proposal activity it can observe —
// modelling regions that keep growing while agreement is underway (T5).
func CascadeSpec(rows, cols, k, depth int, gap int64, seed int64) Spec {
	g := graph.Grid(rows, cols)
	block := graph.CenterBlock(rows, cols, k)
	crashes := CrashAll(block, 10)
	// Extend the region rightwards from the block's east flank, one node
	// per `gap` ticks, starting after the first proposals are out.
	r0 := (rows - k) / 2
	c0 := (cols-k)/2 + k
	t := int64(40)
	for d := 0; d < depth && c0+d < cols; d++ {
		crashes = append(crashes, sim.CrashAt{Time: t, Node: graph.GridID(r0, c0+d)})
		t += gap
	}
	return Spec{
		Name:    fmt.Sprintf("cascade-grid%dx%d-block%d-depth%d", rows, cols, k, depth),
		Graph:   g,
		Crashes: crashes,
		Seed:    seed,
	}
}
