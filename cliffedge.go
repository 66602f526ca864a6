// Package cliffedge is a library for cliff-edge consensus — the convergent
// detection of crashed regions in networks of arbitrary size, after
// Taïani, Porter, Coulson & Raynal, "Cliff-Edge Consensus: Agreeing on the
// Precipice" (PaCT 2013).
//
// When a whole region of a large distributed system fails at once (a rack,
// a data centre, a partitioned overlay neighbourhood), the surviving nodes
// around the hole — the nodes on the "cliff edge" — must agree on the
// exact extent of the crashed region and on a common recovery action,
// involving only themselves: the protocol's cost depends on the size of
// the failure, never on the size of the system.
//
// # Quick start
//
//	topo := cliffedge.Grid(8, 8)
//	victims := cliffedge.CenterBlock(8, 8, 2)
//	c, err := cliffedge.New(topo, cliffedge.WithSeed(1), cliffedge.WithChecker())
//	if err != nil { ... }
//	res, err := c.Run(context.Background(),
//		cliffedge.NewPlan().At(10).Crash(victims...))
//	// res.Decisions: every border node of the 2×2 block decided the same
//	// (region, repair-plan) pair.
//
// # Architecture
//
// The API is three composable concepts:
//
//   - A [Cluster] (built with [New] and functional options) describes the
//     system under test: topology, seed, latency bands, proposal/pick
//     functions, instrumentation. It holds no run state and is reusable.
//   - A [Plan] (built with [NewPlan]) describes the faults of one run:
//     timed crashes, event-conditioned triggers and stable-predicate
//     marks, through one builder.
//   - An [Engine] executes a Plan against a Cluster. [Sim] is the
//     deterministic discrete-event simulator (same seed, same run, bit
//     for bit); [Live] runs one goroutine per node on the Go scheduler.
//     Both honour context cancellation.
//
// Instrumentation streams: [WithObserver] delivers every trace event as
// it happens, [WithChecker] verifies the paper's seven properties CD1–CD7
// online, and [WithoutTraceBuffer] drops the in-memory trace so that runs
// over huge topologies use memory proportional to the system, not to its
// history.
//
// Above single runs, a [Campaign] (built with [NewCampaign]) sweeps a
// grid of (topology family × fault regime × engine) cells over a seed
// range across a worker pool and aggregates distributions: latency
// percentiles, cost-vs-border locality fits, violation and cross-run
// agreement rates.
package cliffedge

import (
	"fmt"
	"io"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// NodeID identifies a process; IDs order lexicographically.
type NodeID = graph.NodeID

// Topology is the immutable knowledge graph G = (Π, E): an edge means the
// two nodes know each other and monitor each other's liveness.
type Topology = graph.Graph

// TopologyBuilder accumulates nodes and undirected edges.
type TopologyBuilder = graph.Builder

// Region is a canonical set of nodes with its border; decided views are
// regions.
type Region = region.Region

// Value is a decision value (e.g. a repair-plan identifier).
type Value = proto.Value

// Event is one trace entry of a run.
type Event = trace.Event

// Event kinds, for [Plan.OnEvent] predicates and trace inspection.
const (
	EventCrash   = trace.KindCrash
	EventDetect  = trace.KindDetect
	EventSend    = trace.KindSend
	EventDeliver = trace.KindDeliver
	EventDrop    = trace.KindDrop
	EventPropose = trace.KindPropose
	EventReject  = trace.KindReject
	EventReset   = trace.KindReset
	EventDecide  = trace.KindDecide
)

// Stats aggregates a run's trace.
type Stats = trace.Stats

// NewTopology returns an empty topology builder.
func NewTopology() *TopologyBuilder { return graph.NewBuilder() }

// Topology generators, re-exported from the graph substrate. All are
// deterministic given their parameters (and seed where randomised).
var (
	// Grid builds a rows×cols 4-neighbour mesh.
	Grid = graph.Grid
	// Torus builds a wraparound mesh.
	Torus = graph.Torus
	// Ring builds an n-cycle.
	Ring = graph.Ring
	// Line builds an n-node path.
	Line = graph.Line
	// Star builds a hub-and-leaves topology.
	Star = graph.Star
	// Tree builds a complete k-ary tree.
	Tree = graph.Tree
	// Complete builds K_n.
	Complete = graph.Complete
	// Chord builds a ring with power-of-two fingers (DHT-like).
	Chord = graph.Chord
	// ErdosRenyi builds G(n, p) plus a connectivity cycle.
	ErdosRenyi = graph.ErdosRenyi
	// SmallWorld builds a Watts–Strogatz small world.
	SmallWorld = graph.SmallWorld
	// RandomGeometric builds a unit-square proximity graph.
	RandomGeometric = graph.RandomGeometric
	// Clustered builds dense blobs joined by bridges.
	Clustered = graph.Clustered
	// BarabasiAlbert builds a scale-free preferential-attachment graph.
	BarabasiAlbert = graph.BarabasiAlbert
	// Hypercube builds the d-dimensional hypercube.
	Hypercube = graph.Hypercube
	// GridID names the node at (row, col) of a generated grid.
	GridID = graph.GridID
	// RingID names the i-th node of ring-like generators.
	RingID = graph.RingID
	// CenterBlock lists the k×k block centred in a rows×cols grid.
	CenterBlock = graph.CenterBlock
	// GridBlock lists the k×k block anchored at (r0, c0).
	GridBlock = graph.GridBlock
	// Fig1 builds the paper's Fig. 1 world graph (returns graph, F1, F2).
	Fig1 = graph.Fig1
	// Fig2 builds the paper's Fig. 2 faulty-domain cluster.
	Fig2 = graph.Fig2
)

// NewRegion builds a Region over t from the given nodes. A node t does not
// have is an error that names it.
func NewRegion(t *Topology, nodes []NodeID) (Region, error) {
	for _, n := range nodes {
		if !t.Has(n) {
			return Region{}, fmt.Errorf("cliffedge: node %q is not in the topology", n)
		}
	}
	return region.New(t, nodes), nil
}

// LatencyRange is a uniform latency band [Min, Max] in virtual time
// ticks.
type LatencyRange = sim.Uniform

// Decision is one node's protocol outcome: the agreed crashed region and
// the common decision value.
type Decision struct {
	Node  NodeID
	View  Region
	Value Value
}

// Result is a finished run.
type Result struct {
	// Decisions lists every correct node's decision, sorted by node.
	Decisions []Decision
	// Stats aggregates message, byte, round and timing counters.
	Stats Stats
	// Crashed is the set of nodes that failed during the run.
	Crashed map[NodeID]bool
	// Net carries the link-layer counters when a network-condition model
	// was attached (WithNetModel or Plan.FlapLink/Degrade); nil otherwise.
	Net *NetStats

	events []Event
}

// Events returns the full trace of the run in order.
func (r *Result) Events() []Event { return r.events }

// Narrative writes the trace in a human-readable line-per-event form.
func (r *Result) Narrative(w io.Writer) error {
	for _, e := range r.events {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// DecisionByNode returns the decision taken by n, or nil.
func (r *Result) DecisionByNode(n NodeID) *Decision {
	for i := range r.Decisions {
		if r.Decisions[i].Node == n {
			return &r.Decisions[i]
		}
	}
	return nil
}

// DOT renders the topology in Graphviz format, shading the given crashed
// nodes.
func DOT(t *Topology, crashed []NodeID, name string) string {
	return t.DOT(name, graph.ToSet(crashed))
}
