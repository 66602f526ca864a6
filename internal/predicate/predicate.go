// Package predicate implements the extension sketched in the paper's
// conclusion (§5): convergent detection of connected regions of nodes that
// share a given *stable predicate* — "being crashed" being the special
// case the main protocol handles.
//
// A node whose stable predicate starts to hold (it is "marked": think
// saturated, draining, running a deprecated version) keeps running but
// withdraws from coordination; the correct nodes around the marked region
// agree on its exact extent and on a common reaction, with the same seven
// properties and the same locality as the crash case.
//
// The interesting difference is detection. Crashed nodes are mute, so the
// main protocol needs an external perfect failure detector; marked nodes
// are alive, so detection is cooperative: a marked node floods the known
// marked set within the marked region (marked neighbours relay) and
// announces it one hop out to the region's border. Every border node of a
// marked region therefore eventually learns the region's full extent —
// exactly the closure the crash case obtains through monitorCrash
// subscriptions — after which the unmodified core protocol runs among the
// border nodes.
package predicate

import (
	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
)

// Mark is the external command that makes a node's stable predicate hold.
// Inject it with sim.InjectAt (or deliver it through any runtime).
type Mark struct{}

// WireSize implements proto.Payload.
func (Mark) WireSize() int { return 1 }

// Kind implements proto.Payload.
func (Mark) Kind() string { return "predicate.mark" }

// Announce is the marked-set gossip: the sender's current knowledge of
// marked nodes. Marked nodes relay it within the region; border nodes
// translate newly learned marked nodes into the core protocol's crash
// events.
type Announce struct {
	Marked []graph.NodeID // sorted
}

// WireSize implements proto.Payload.
func (a Announce) WireSize() int {
	size := 1
	for _, n := range a.Marked {
		size += len(n) + 1
	}
	return size
}

// Kind implements proto.Payload.
func (Announce) Kind() string { return "predicate.announce" }

// Node is a predicate-region participant: a thin detection layer over the
// unmodified cliff-edge core. While unmarked it runs the core protocol,
// feeding it 〈crash | q〉 events whenever it learns node q is marked.
// Once marked it abandons coordination and only relays marked-set gossip.
type Node struct {
	id     graph.NodeID
	idx    int32 // id's dense graph index
	g      *graph.Graph
	marked bool
	// known is the marked set learned so far (including self if marked).
	known map[graph.NodeID]bool
	inner *core.Node
}

// New builds a predicate-region node.
func New(cfg core.Config) *Node { return wrap(cfg.Graph, core.New(cfg)) }

func wrap(g *graph.Graph, inner *core.Node) *Node {
	return &Node{
		id:    inner.ID(),
		idx:   g.Index(inner.ID()),
		g:     g,
		known: make(map[graph.NodeID]bool),
		inner: inner,
	}
}

// ID implements proto.Automaton.
func (n *Node) ID() graph.NodeID { return n.id }

// Marked reports whether this node's stable predicate holds.
func (n *Node) Marked() bool { return n.marked }

// Known returns the sorted marked set this node has learned.
func (n *Node) Known() []graph.NodeID { return graph.SetToSlice(n.known) }

// Decided implements proto.Automaton; marked nodes never decide.
func (n *Node) Decided() *proto.Decision {
	if n.marked {
		return nil
	}
	return n.inner.Decided()
}

// Violations exposes the inner core node's invariant breaches.
func (n *Node) Violations() []string { return n.inner.Violations() }

// Start implements proto.Automaton. No failure-detector subscriptions are
// issued: detection is cooperative, so the core's Monitor effects are
// discarded here and everywhere below.
func (n *Node) Start() proto.Effects {
	eff := n.inner.Start()
	eff.Monitor = nil
	return eff
}

// OnCrash implements proto.Automaton. The predicate runtime never
// generates crash events (marked nodes stay alive); tolerate stray ones by
// treating them as markings so mixed schedules stay safe.
func (n *Node) OnCrash(q graph.NodeID) proto.Effects {
	return n.learn([]graph.NodeID{q})
}

// OnMessage implements proto.Automaton.
func (n *Node) OnMessage(from graph.NodeID, payload proto.Payload) proto.Effects {
	switch m := payload.(type) {
	case Mark:
		return n.mark()
	case Announce:
		return n.learn(m.Marked)
	case *core.Message:
		if n.marked {
			// Marked nodes have left coordination; their silence is what
			// the border observes, mirroring a crashed node.
			return proto.Effects{}
		}
		eff := n.inner.OnMessage(from, m)
		eff.Monitor = nil
		return eff
	default:
		return proto.Effects{}
	}
}

// mark makes the predicate hold locally and announces it.
func (n *Node) mark() proto.Effects {
	var eff proto.Effects
	if n.marked {
		return eff
	}
	n.marked = true
	n.known[n.id] = true
	n.announce(&eff)
	return eff
}

// learn merges newly known marked nodes. Marked nodes re-announce growth
// (flooding within the region reaches its border); unmarked nodes feed the
// news to the core protocol as crash detections.
//
// The core maintains the invariant that every component of its detected
// set touches one of its own neighbours (that is what makes proposed views
// self-bordered). Announce sets are connected and contain a marked
// neighbour of the receiver, so the invariant is preserved by feeding
// fresh nodes to the core in BFS order from the receiver's marked
// neighbours rather than in arbitrary order.
func (n *Node) learn(marked []graph.NodeID) proto.Effects {
	var eff proto.Effects
	fresh := make(map[graph.NodeID]bool)
	for _, q := range marked {
		if q == n.id || n.known[q] {
			continue
		}
		n.known[q] = true
		fresh[q] = true
	}
	if len(fresh) == 0 {
		return eff
	}
	if n.marked {
		n.announce(&eff)
		return eff
	}
	for _, q := range n.bfsOrder(fresh) {
		e := n.inner.OnCrash(q)
		e.Monitor = nil
		eff.Merge(e)
	}
	return eff
}

// bfsOrder returns the fresh marked nodes ordered by a BFS over the known
// marked set started at this node's own marked neighbours, so that each
// emitted node is connected (through known marked nodes) to a neighbour of
// this node by the time the core processes it.
func (n *Node) bfsOrder(fresh map[graph.NodeID]bool) []graph.NodeID {
	var queue []int32
	visited := make(map[graph.NodeID]bool)
	visit := func(row []int32) {
		for _, i := range row {
			if q := n.g.ID(i); n.known[q] && !visited[q] {
				visited[q] = true
				queue = append(queue, i)
			}
		}
	}
	if n.idx >= 0 {
		visit(n.g.NeighborIndices(n.idx))
	}
	var order []graph.NodeID
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if q := n.g.ID(i); fresh[q] {
			order = append(order, q)
		}
		visit(n.g.NeighborIndices(i))
	}
	// Defensive: anything unreachable (cannot happen for well-formed
	// announces) is appended last in sorted order rather than dropped.
	var rest []graph.NodeID
	for q := range fresh {
		if !visited[q] {
			rest = append(rest, q)
		}
	}
	graph.SortIDs(rest)
	return append(order, rest...)
}

// announce floods the current marked set to every neighbour. The
// recipients are the graph's own adjacency row, which is immutable, so it
// is handed to the network without a copy.
func (n *Node) announce(eff *proto.Effects) {
	if n.idx < 0 || n.g.DegreeOf(n.idx) == 0 {
		return
	}
	eff.Sends = append(eff.Sends, proto.Send{To: n.g.NeighborIndices(n.idx),
		Payload: Announce{Marked: n.Known()}})
}

var _ proto.Automaton = (*Node)(nil)

// Factory builds the automaton factory for a predicate-region run: the
// nodes of core.Factory(cfg), each wrapped.
func Factory(cfg core.Config) proto.Factory { return Wrap(cfg.Graph, core.Factory(cfg)) }

// Wrap builds the automaton factory of a predicate-region run over g from
// a factory of core nodes (core.Factory, or a core.Slab's): each node it
// builds is wrapped.
func Wrap(g *graph.Graph, nodes proto.Factory) proto.Factory {
	return func(id graph.NodeID) proto.Automaton {
		return wrap(g, nodes(id).(*core.Node))
	}
}
