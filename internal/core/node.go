package core

import (
	"fmt"
	"math/bits"
	"slices"

	"cliffedge/internal/dsu"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// Config parameterises one protocol node.
type Config struct {
	// ID is this node's identity (p in the paper).
	ID graph.NodeID
	// Graph is the topology oracle: the paper assumes each node can query
	// G on demand (§2.2), for live nodes by asking them and for crashed
	// nodes through an underlying topology service. Both are modelled by
	// read access to the immutable graph.
	Graph *graph.Graph
	// Propose is selectValueForView (line 14): it maps a view the node is
	// about to propose to this node's suggested decision value (a repair
	// plan identifier, say). Defaults to DefaultPropose.
	Propose func(region.Region) proto.Value
	// Pick is deterministicPick (line 35): it deterministically selects
	// the decision from the accepted values of the final vector. It must
	// be a pure function of the value multiset so that all border nodes
	// pick identically. Defaults to DefaultPick (lexicographic minimum).
	Pick func([]proto.Value) proto.Value
	// DisableArbitration removes the ranking/rejection mechanism
	// (lines 26–31) — the T4 ablation. With arbitration disabled,
	// conflicting overlapping proposals deadlock instead of converging;
	// never use outside experiments.
	DisableArbitration bool
	// LiteralPaperRounds runs |B|−1 flooding rounds per instance, exactly
	// as printed in Algorithm 1 (line 33). The default is |B| rounds,
	// which the classical flooding *uniform* consensus argument requires
	// for CD5; the printed count admits a uniformity counterexample (see
	// the instance type's doc comment and the mck package). Only use for
	// demonstration and ablation.
	LiteralPaperRounds bool
}

// DefaultPropose derives a deterministic repair-plan value from the view.
func DefaultPropose(v region.Region) proto.Value {
	return proto.Value("repair(" + v.Key() + ")")
}

// DefaultPick returns the lexicographically smallest value — a valid
// deterministicPick since it depends only on the value multiset.
func DefaultPick(values []proto.Value) proto.Value {
	if len(values) == 0 {
		return ""
	}
	min := values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Node is one protocol participant: the state of Algorithm 1 lines 1–3
// plus the per-view instances. Create with New; drive through the
// proto.Automaton interface. A Node is not safe for concurrent use — the
// paper's model is mono-threaded event processing, and runtimes serialise
// events per node.
type Node struct {
	cfg Config
	// selfIdx is the dense graph index of cfg.ID (-1 if the node is not a
	// graph member, which only happens in synthetic tests). Effects name
	// nodes by dense index (see proto.Send), so this is the form of the
	// node's own identity the hot path compares against.
	selfIdx int32
	// keys is the view-key table this node shares with the other nodes of
	// its run (see Factory); nil for a node built on its own.
	keys *region.KeyTable

	// decided is the protocol outcome (line 2: decided ← ⊥).
	decided *proto.Decision
	// hasProposed mirrors proposed ≠ ⊥ (lines 2, 14, 37). The proposed
	// value itself is proposedValue.
	hasProposed bool
	// started is set by the first Start, which subscribes to the node's
	// neighbours.
	started       bool
	proposedValue proto.Value

	// locallyCrashed is the set of nodes p has detected as crashed
	// (line 6), as a bitset over dense graph indices. monitored tracks
	// issued 〈monitorCrash〉 subscriptions so they are not re-issued
	// (semantically idempotent either way). Most nodes of a large system
	// never witness a crash, so both stay empty (length 0) until the first
	// detection sizes them (see witness): until then nothing is crashed
	// and the monitored set is the node's neighbours if it has started,
	// nothing otherwise.
	locallyCrashed graph.Bitset
	monitored      graph.Bitset

	// uf is a union-find over locallyCrashed, maintained incrementally:
	// when q crashes it is united with its already-crashed neighbours, so
	// the connected components of the locally known crashed set (line 8)
	// cost amortised near-O(1) per detection instead of a whole-set
	// recomputation. Like the two sets, it is sized by the first crash
	// detection.
	uf *dsu.DSU
	// compScratch is the reusable buffer for gathering the members of a
	// component about to be built as a Region. borderSeen is the scratch
	// bitset for the Region border computation (empty between calls), and
	// monitorScratch and sendScratch back eff.Monitor and eff.Sends across
	// calls — see subscribe and multicast. Scratch fields are never cloned;
	// a fresh Node lazily regrows them.
	compScratch    []int32
	borderSeen     graph.Bitset
	monitorScratch []int32
	sendScratch    []proto.Send
	// maskChunk is the unused rest of the chunk maskSpace cuts from. A
	// clone starts a chunk of its own: what was cut is immutable, what is
	// left must not be handed out twice.
	maskChunk []uint64

	// maxView and candidateView implement the view construction of
	// lines 8–11; vp is V_p, the currently (or last) proposed view.
	// While pending is set, it — not the two fields — is the current
	// maxView and candidateView; see pendingView.
	maxView       region.Region
	candidateView region.Region
	pending       pendingView
	vp            region.Region
	// round is r, the current round of p's own instance (line 16).
	round int

	// views holds received and rejected (lines 19–22, 30): one slot per
	// view heard of, carrying the live instance until the view is rejected.
	views viewTable
	// rejectDirty is set when the answer of guardReject may have changed:
	// a view was added to received, or vp moved. While clear, the guard's
	// linear scan over views is skipped — the scan result is a pure
	// function of (received, vp), so the guard loop need not repeat it.
	rejectDirty bool
	// ownInst caches the received instance of vp for guardRound, avoiding
	// a table lookup (with its full-key comparison) per guard pass.
	// Reset to nil whenever vp changes; refilled lazily. Never stale
	// otherwise: rejection only ever removes views strictly below vp.
	ownInst *instance

	// pendingSelf queues this node's own multicast copies: the paper's
	// multicast includes the sender, and the flooding bookkeeping needs
	// the self-delivery (it clears p from waiting[V][r]). Self-copies are
	// processed synchronously in the guard loop — a zero-latency FIFO
	// self-channel — so the network layer never sees them. psHead is the
	// dequeue cursor: popping by index instead of re-slicing lets the
	// buffer's capacity be reused once the queue drains, instead of every
	// enqueue-after-drain reallocating. The queue holds the very message
	// the network carries to the other recipients (see Message).
	pendingSelf []*Message
	psHead      int

	// violations records internal invariant breaches (bugs, not protocol
	// events); checkers assert this stays empty.
	violations []string
}

// New builds a Node from cfg, applying defaults. It panics only on a
// programmer error: a missing ID or Graph.
func New(cfg Config) *Node {
	n := new(Node)
	n.reset(cfg)
	return n
}

// reset makes n the node New(cfg) builds, keeping the memory of n's
// earlier runs: its bitsets, union-find, scratch buffers, view-table map
// and the rest of its mask chunk. The kept sets are emptied to length 0
// and the union-find is kept as is: the first crash detection of the new
// run resizes and clears all three (see witness). Nothing reset keeps is
// reachable from what an earlier run handed out (decisions, views,
// messages).
func (n *Node) reset(cfg Config) {
	if cfg.ID == "" || cfg.Graph == nil {
		panic("core.New: Config.ID and Config.Graph are required")
	}
	if cfg.Propose == nil {
		cfg.Propose = DefaultPropose
	}
	if cfg.Pick == nil {
		cfg.Pick = DefaultPick
	}
	size := cfg.Graph.Len()
	clear(n.sendScratch)
	clear(n.pendingSelf)
	clear(n.violations)
	clear(n.views.slots)
	*n = Node{
		cfg:            cfg,
		selfIdx:        cfg.Graph.Index(cfg.ID),
		locallyCrashed: n.locallyCrashed[:0],
		monitored:      n.monitored[:0],
		compScratch:    n.compScratch[:0],
		monitorScratch: n.monitorScratch[:0],
		sendScratch:    n.sendScratch[:0],
		maskChunk:      n.maskChunk,
		uf:             n.uf,
		views:          viewTable{slots: n.views.slots},
		pendingSelf:    n.pendingSelf[:0],
		violations:     n.violations[:0],
	}
	if n.borderSeen != nil {
		n.borderSeen = n.borderSeen.Reset(size)
	}
}

// Factory returns the proto.Factory of one run: every node it builds gets
// cfg with its own ID, all of them are cut from one slab (see Slab), and
// all of them share one region.KeyTable. The border nodes of a crashed
// region each build the same view, so with the table the views a node
// hears of from different proposers carry one key string, and the key
// comparison that identifies a view on every delivery ends at the pointer
// check instead of reading a key that grows with the region. Nothing else
// is shared, and the table is reachable only through the factory and its
// nodes: it is garbage when the run is.
func Factory(cfg Config) proto.Factory { return new(Slab).Factory(cfg) }

// Slab holds the nodes of one run: node i of the graph is the slab's i-th
// element, so a run allocates one array of |V| nodes instead of |V|
// nodes, and a Slab reused for the next run allocates none — its nodes
// are reset in place and keep their buffers (see reset). A factory hands
// each slab element out once; asking it for a node again (or for an ID
// outside the graph) gets a node of its own. The zero Slab is ready to
// use. Slab.Factory starts a new run: the nodes the previous factory
// handed out are reused, so they must no longer be in use. A slab's
// factory is not safe for concurrent calls; the runtimes build a run's
// nodes one after another.
type Slab struct {
	nodes  []Node
	handed graph.Bitset
	keys   *region.KeyTable
}

// Factory returns the proto.Factory of one run over cfg.Graph, as the
// package-level Factory does, with its nodes cut from s.
func (s *Slab) Factory(cfg Config) proto.Factory {
	if s.keys == nil {
		s.keys = region.NewKeyTable()
	} else {
		s.keys.Reset()
	}
	armed := false
	return func(id graph.NodeID) proto.Automaton {
		cfg := cfg
		cfg.ID = id
		var n *Node
		if cfg.Graph != nil {
			if !armed {
				// Sized by the first node built, not when the factory is
				// made: a run pays for its nodes when it builds them.
				armed = true
				size := cfg.Graph.Len()
				if cap(s.nodes) < size {
					s.nodes = make([]Node, size)
				}
				s.nodes = s.nodes[:size]
				s.handed = s.handed.Reset(size)
			}
			if i := cfg.Graph.Index(id); i >= 0 && !s.handed.Has(i) {
				s.handed.Set(i)
				n = &s.nodes[i]
				n.reset(cfg)
			}
		}
		if n == nil {
			n = New(cfg)
		}
		n.keys = s.keys
		return n
	}
}

// ID returns the node's identity.
func (n *Node) ID() graph.NodeID { return n.cfg.ID }

// Decided returns the decision taken by this node, or nil (line 36).
func (n *Node) Decided() *proto.Decision { return n.decided }

// HasProposed reports whether proposed ≠ ⊥.
func (n *Node) HasProposed() bool { return n.hasProposed }

// CurrentView returns V_p, the view of the node's current (or last)
// consensus instance; the empty region if it never proposed.
func (n *Node) CurrentView() region.Region { return n.vp }

// Round returns r, the node's current round within its own instance.
func (n *Node) Round() int { return n.round }

// LocallyCrashed returns the sorted set of nodes detected as crashed.
func (n *Node) LocallyCrashed() []graph.NodeID {
	out := make([]graph.NodeID, 0, n.locallyCrashed.Count())
	n.locallyCrashed.ForEach(func(i int32) {
		out = append(out, n.cfg.Graph.ID(i))
	})
	return out
}

// MaxView returns the highest-ranked crashed region known locally.
func (n *Node) MaxView() region.Region {
	n.materialise()
	return n.maxView
}

// Violations returns internal invariant breaches recorded so far (always
// empty unless there is an implementation bug).
func (n *Node) Violations() []string {
	return append([]string(nil), n.violations...)
}

func (n *Node) violatef(format string, args ...any) {
	n.violations = append(n.violations, fmt.Sprintf(format, args...))
}

// Start handles 〈init〉 (lines 1–4): subscribe to crashes of border(p).
// Before the first crash detection the subscription is recorded by
// started alone, and eff.Monitor is the graph's own adjacency row (a graph
// has no self-loops): read-only, and capped so that an append copies it.
func (n *Node) Start() proto.Effects {
	var eff proto.Effects
	switch {
	case n.selfIdx < 0:
	case len(n.monitored) > 0:
		n.subscribe(n.cfg.Graph.NeighborIndices(n.selfIdx), &eff)
	case !n.started:
		n.started = true
		if row := n.cfg.Graph.NeighborIndices(n.selfIdx); len(row) > 0 {
			eff.Monitor = row[:len(row):len(row)]
		}
	}
	return eff
}

// witness sizes locallyCrashed, monitored and uf for the run's graph on
// the first crash detection, with monitored holding what Start subscribed
// to. It is a no-op once they are sized.
func (n *Node) witness() {
	if len(n.locallyCrashed) > 0 {
		return
	}
	size := n.cfg.Graph.Len()
	n.locallyCrashed = n.locallyCrashed.Reset(size)
	n.monitored = n.monitored.Reset(size)
	if n.started {
		for _, qi := range n.cfg.Graph.NeighborIndices(n.selfIdx) {
			n.monitored.Set(qi)
		}
	}
	if n.uf == nil {
		n.uf = dsu.New(size)
	} else {
		n.uf.Reset(size)
	}
}

// monitors reports whether the node has subscribed to crashes of qi.
func (n *Node) monitors(qi int32) bool {
	if len(n.monitored) == 0 {
		return n.started && slices.Contains(n.cfg.Graph.NeighborIndices(n.selfIdx), qi)
	}
	return n.monitored.Has(qi)
}

// knowsCrashed reports whether qi ∈ locallyCrashed.
func (n *Node) knowsCrashed(qi int32) bool {
	return len(n.locallyCrashed) > 0 && n.locallyCrashed.Has(qi)
}

// subscribe issues 〈monitorCrash | S〉 for not-yet-monitored, not-yet-known
// crashed nodes (the \locallyCrashed of line 7); nodes holds dense graph
// indices, a CSR adjacency row. The sets must be sized (see witness).
// eff.Monitor is backed by a buffer the node reuses across calls (see
// proto.Effects: effect slices are valid only until the next call into
// the automaton).
func (n *Node) subscribe(nodes []int32, eff *proto.Effects) {
	for _, qi := range nodes {
		if qi == n.selfIdx || n.monitored.Has(qi) || n.locallyCrashed.Has(qi) {
			continue
		}
		n.monitored.Set(qi)
		if eff.Monitor == nil {
			eff.Monitor = n.monitorScratch[:0]
		}
		eff.Monitor = append(eff.Monitor, qi)
	}
	if len(eff.Monitor) > cap(n.monitorScratch) {
		n.monitorScratch = eff.Monitor
	}
}

// pendingView is a crashed component known to outrank maxView on
// cardinality alone (rule 1 of ≺) that has not been built as a Region: its
// union-find root and size are all the ranking needs until something reads
// the view itself. A node that has already proposed reads neither maxView
// nor candidateView before it resets, and in a cascade most detections
// arrive in that state, so most components are superseded unbuilt.
//
// The component cannot change while it is pending: components only grow
// through a detection whose q joins them, that detection sees a strictly
// larger size, and replaces the entry. Building it later therefore yields
// the Region an eager build would have. size 0 means none.
type pendingView struct{ root, size int32 }

// OnCrash handles 〈crash | q〉 (lines 5–11): extend locallyCrashed, widen
// the failure-detector subscription to border(q), fold q into the
// incremental union-find over the locally known crashed set, and promote
// the component q joined to maxView/candidateView if it outranks every
// view seen so far. Then run the guard loop.
//
// Only the component containing q needs ranking: every other connected
// component of locallyCrashed is unchanged since the previous detection,
// and maxView already ranks at or above all of them (it was updated
// against the full component set when they formed). Comparing maxView
// against q's component alone is therefore equivalent to the paper's
// whole-set connectedComponents recomputation (line 8), at amortised
// near-O(1) union-find cost per detection.
func (n *Node) OnCrash(q graph.NodeID) proto.Effects {
	var eff proto.Effects
	qi := n.cfg.Graph.Index(q)
	if qi < 0 {
		// The perfect failure detector only reports graph members; anything
		// else is a harness bug.
		n.violatef("crash notification for unknown node %s", q)
		return eff
	}
	n.witness()
	if n.locallyCrashed.Has(qi) {
		return eff // duplicate notification; idempotent
	}
	n.locallyCrashed.Set(qi)                           // line 6
	n.subscribe(n.cfg.Graph.NeighborIndices(qi), &eff) // line 7
	for _, m := range n.cfg.Graph.NeighborIndices(qi) {
		if n.locallyCrashed.Has(m) {
			n.uf.Union(qi, m)
		}
	}
	// Rule 1 of the ranking compares cardinality first. A strictly larger
	// component outranks maxView without its border or key being known; a
	// strictly smaller one never can; only a tie needs both Regions.
	max := n.maxView.Len()
	if n.pending.size > 0 {
		max = int(n.pending.size)
	}
	root := n.uf.Find(qi)
	switch size := n.uf.SizeOf(root); {
	case int(size) > max: // lines 9–11, deferred
		n.pending = pendingView{root: root, size: size}
	case int(size) == max:
		n.materialise()
		if comp := n.component(root); region.Less(n.maxView, comp) { // line 9
			n.maxView = comp       // line 10
			n.candidateView = comp // line 11
		}
	}
	n.runGuards(&eff)
	return eff
}

// component builds the Region of the union-find class rooted at root: one
// sweep of the crashed bitset to gather the members, then the border and
// key construction.
func (n *Node) component(root int32) region.Region {
	members := n.compScratch[:0]
	n.locallyCrashed.ForEach(func(i int32) {
		if n.uf.Find(i) == root {
			members = append(members, i)
		}
	})
	n.compScratch = members
	if n.borderSeen == nil {
		n.borderSeen = graph.NewBitset(n.cfg.Graph.Len())
	}
	return region.NewFromIndicesScratch(n.cfg.Graph, members, n.locallyCrashed, n.borderSeen, n.keys)
}

// materialise performs the deferred lines 10–11: if a component is
// pending, build it and make it maxView and candidateView. It changes no
// observable state, so read-only accessors may call it.
func (n *Node) materialise() {
	if n.pending.size == 0 {
		return
	}
	comp := n.component(n.pending.root)
	n.pending = pendingView{}
	n.maxView, n.candidateView = comp, comp
}

// OnMessage handles 〈mDeliver | from, payload〉 (lines 18–25), then runs
// the guard loop. The protocol's payload is a *Message.
func (n *Node) OnMessage(from graph.NodeID, payload proto.Payload) proto.Effects {
	var eff proto.Effects
	m, ok := payload.(*Message)
	if !ok || m == nil {
		n.violatef("foreign payload %T from %s", payload, from)
		return eff
	}
	n.deliver(m)
	n.runGuards(&eff)
	return eff
}

// deliver merges one message into the per-view bookkeeping (lines 18–25).
// The message is shared with its other recipients, so nothing here writes
// to it.
func (n *Node) deliver(m *Message) {
	hash, key := m.View.Identity()
	slot := n.views.lookup(hash, key)
	if slot == nil { // lines 19–22: initialise data structures for V
		inst := newInstance(m.View, n.cfg.LiteralPaperRounds)
		slot = n.views.insert(hash, key, inst)
		n.rejectDirty = true
	}
	inst := slot.inst
	if inst == nil { // line 18: V ∉ rejected
		return
	}
	if !inst.validRound(m.Round) {
		n.violatef("message round %d out of range for view %s (|B|=%d)",
			m.Round, m.View, len(inst.borderIdx))
		return
	}
	if len(m.masks) != 2*inst.words || m.values != nil && len(m.values) != len(inst.borderIdx) {
		n.violatef("message opinions (%d mask words, %d values) do not fit |B|=%d for view %s",
			len(m.masks), len(m.values), len(inst.borderIdx), m.View)
		return
	}
	if !sameBorder(&m.View, &inst.view) {
		// The merge below is positional: a vector indexed by another
		// border would land in the wrong participants' slots.
		n.violatef("message border %v ≠ instance border %v for view %s",
			m.View.Border(), inst.view.Border(), m.View)
		return
	}
	if j := inst.merge(m.Round, int(m.sender)-1, m.masks, m.values); j >= 0 {
		n.violatef("view %s: %s accepts with %q, already known to accept with %q",
			m.View, inst.view.BorderID(j), m.values[j], inst.values[j])
	}
}

// sameBorder reports whether the sorted borders of two views, each named
// by its own graph, agree in length and in their first and last node —
// the check a delivery can afford per message (full equality is |B|
// string comparisons) that still catches a vector built over a different
// participant set.
func sameBorder(a, b *region.Region) bool {
	n := a.BorderLen()
	return n == b.BorderLen() &&
		(n == 0 || a.BorderID(0) == b.BorderID(0) && a.BorderID(n-1) == b.BorderID(n-1))
}

// runGuards re-evaluates the `upon` guards of lines 12, 26 and 32 to
// fixpoint, in a fixed order (self-deliveries, propose, reject, round
// completion), after every external event. Fixed ordering makes runs
// deterministic; termination follows from the strict monotonicity of
// proposals (lemma 2) and the finite round structure.
func (n *Node) runGuards(eff *proto.Effects) {
	// The sends of the previous call are dead now that the automaton is
	// called again: let go of their payloads before the buffer is reused.
	clear(n.sendScratch)
	n.sendScratch = n.sendScratch[:0]
	for {
		if n.psHead < len(n.pendingSelf) {
			m := n.pendingSelf[n.psHead]
			n.psHead++
			if n.psHead == len(n.pendingSelf) {
				clear(n.pendingSelf) // release payload references
				n.pendingSelf = n.pendingSelf[:0]
				n.psHead = 0
			}
			n.deliver(m)
			continue
		}
		if n.guardPropose(eff) {
			continue
		}
		if n.guardReject(eff) {
			continue
		}
		if n.guardRound(eff) {
			continue
		}
		return
	}
}

// guardPropose implements lines 12–17: start a new consensus instance when
// no proposal is outstanding and a candidate view exists.
func (n *Node) guardPropose(eff *proto.Effects) bool {
	if n.hasProposed {
		return false
	}
	n.materialise()
	if n.candidateView.IsEmpty() {
		return false
	}
	n.vp = n.candidateView                // line 13
	n.candidateView = region.Empty        //
	n.proposedValue = n.cfg.Propose(n.vp) // line 14
	n.hasProposed = true
	n.round = 1          // line 16
	n.rejectDirty = true // vp moved: lower-ranked received views may now exist
	n.ownInst = nil
	if s := n.views.lookup(n.vp.Hash(), n.vp.Key()); s != nil && s.inst == nil {
		// Lemma 2 guarantees this cannot happen; record it if it does.
		n.violatef("proposing previously rejected view %s", n.vp)
	}
	if !n.vp.OnBorderIndex(n.selfIdx) {
		n.violatef("proposing view %s not bordered by self", n.vp)
	}
	eff.Proposed = append(eff.Proposed, n.vp)

	if n.vp.BorderLen() == 1 {
		// Deviation from Algorithm 1: there is nobody to flood to when
		// this node is the region's only border (the printed |B|−1 round
		// count is zero, and the multicast of line 17 would reach only the
		// sender), so no instance is created. The 1-participant consensus
		// decides its own value at once — its final vector is its own
		// accept — which CD7 (progress) requires of it: it is the cluster's
		// only possible decider.
		n.decided = &proto.Decision{View: n.vp, Value: n.cfg.Pick([]proto.Value{n.proposedValue})}
		eff.Decision = n.decided
		return true
	}
	msg := n.firstMessage(n.vp, true)           // lines 15–16
	n.multicast(n.vp.BorderIndices(), msg, eff) // line 17
	return true
}

// guardReject implements lines 26–31: reject every received view strictly
// lower-ranked than the node's own proposal, lowest-ranked first.
func (n *Node) guardReject(eff *proto.Effects) bool {
	if n.cfg.DisableArbitration || n.vp.IsEmpty() {
		// V_p persists across resets (line 37 clears proposed, not V_p),
		// so a node keeps rejecting lower-ranked views between proposals.
		return false
	}
	if !n.rejectDirty {
		// Neither received nor vp changed since the last empty scan, so
		// the scan below would find nothing again.
		return false
	}
	// Single linear scan for the lowest-ranked received view strictly below
	// V_p (table order does not matter: ≺ is a strict total order, so the
	// minimum is unique).
	var lowest *viewSlot
	for s := range n.views.all {
		if s.inst != nil && region.Less(s.inst.view, n.vp) &&
			(lowest == nil || region.Less(s.inst.view, lowest.inst.view)) {
			lowest = s
		}
	}
	if lowest == nil {
		n.rejectDirty = false
		return false
	}
	l := lowest.inst.view
	lowest.inst = nil                        // line 30: received ← received\{L}, rejected ← rejected ∪ {L}
	msg := n.firstMessage(l, false)          // lines 29–30
	n.multicast(l.BorderIndices(), msg, eff) // line 31
	eff.Rejected = append(eff.Rejected, l)
	return true
}

// guardRound implements lines 32–40: when every non-crashed participant of
// the node's own instance has been heard for the current round, either
// advance to the next round, decide (all-accept final vector), or reset.
//
// The guard additionally requires proposed ≠ ⊥, strengthening the paper's
// text: after a reset the stale instance must not re-fire (the immediate
// re-proposal of line 12 replaces V_p in the same activation whenever a
// larger region is known, so behaviour is unchanged in the cases the paper
// considers).
func (n *Node) guardRound(eff *proto.Effects) bool {
	if !n.hasProposed || n.decided != nil {
		return false
	}
	inst := n.ownInst
	if inst == nil {
		s := n.views.lookup(n.vp.Hash(), n.vp.Key())
		if s == nil || s.inst == nil { // line 32: Vp ∈ received
			return false
		}
		inst = s.inst
		n.ownInst = inst
	}
	if !inst.validRound(n.round) {
		return false
	}
	waiting := inst.waiting(n.round)
	for w := 0; w < inst.words; w++ { // waiting[Vp][r]\locallyCrashed = ∅
		left := inst.allOf(w)
		if waiting != nil {
			left = waiting[w]
		}
		for ; left != 0; left &= left - 1 {
			j := w<<6 | bits.TrailingZeros64(left)
			if !n.knowsCrashed(inst.borderIdx[j]) {
				return false
			}
		}
	}
	if n.round == inst.lastRound { // line 33: consensus instance completed
		if inst.unanimous(n.round) { // line 34
			// Pick gets a copy: a user's may sort its argument, and the
			// column is shared with the messages sent about the view.
			values := slices.Clone(inst.values)
			n.decided = &proto.Decision{View: n.vp, Value: n.cfg.Pick(values)} // line 35
			eff.Decision = n.decided                                           // line 36
		} else {
			n.hasProposed = false // line 37: proposed ← ⊥, reset
			eff.Resets++
		}
		return true
	}
	n.round++        // line 39
	msg := &Message{ // line 40
		Round:  n.round,
		View:   n.vp,
		masks:  n.maskSpace(inst.words),
		values: inst.values, // shared, not copied: see instance.values
		sender: n.senderSlot(inst.borderIdx),
	}
	inst.opinions(msg.masks, n.round-1)
	n.multicast(inst.borderIdx, msg, eff)
	return true
}

// senderSlot returns Message.sender for a message from this node to the
// participants borderIdx: 1 + the node's position among them, 0 if it is
// not one of them.
func (n *Node) senderSlot(borderIdx []int32) int32 {
	if j, ok := slices.BinarySearch(borderIdx, n.selfIdx); ok {
		return int32(j) + 1
	}
	return 0
}

// firstMessage builds this node's round-1 message about view: its own
// accept of proposedValue (lines 15–16) or, if accept is false, its reject
// (lines 29–30) in its own slot, ⊥ in every other. Senders are border
// members; a node that is not (a violation guardPropose records) sends
// all ⊥.
func (n *Node) firstMessage(view region.Region, accept bool) *Message {
	border := view.BorderIndices()
	words := maskWords(len(border))
	m := &Message{Round: 1, View: view, masks: n.maskSpace(words),
		sender: n.senderSlot(border)}
	if m.sender == 0 {
		return m
	}
	j := int(m.sender) - 1
	bit := uint64(1) << uint(j&63)
	m.masks[j>>6] |= bit
	if accept {
		m.values = make([]proto.Value, len(border))
		m.values[j] = n.proposedValue
	} else {
		m.masks[words+j>>6] |= bit
	}
	return m
}

// maskSpace returns 2·words zero words for the masks of one message, cut
// from a chunk that serves eight messages: masks are a few words each,
// so one allocation per multicast would add an object to every message the
// node builds. A chunk is garbage once the messages cut from it are.
func (n *Node) maskSpace(words int) []uint64 {
	if len(n.maskChunk) < 2*words {
		n.maskChunk = make([]uint64, 16*words)
	}
	masks := n.maskChunk[: 2*words : 2*words]
	n.maskChunk = n.maskChunk[2*words:]
	return masks
}

// multicast implements 〈multicast | recipients, m〉 (§3.1): one copy per
// recipient over the point-to-point FIFO channels. recipients is always
// the border indices of m's view — the view's own BorderIndices slice,
// never copied or mutated — so it is handed to the network as-is: Send.To
// may include the sender, whose copy is queued here for synchronous
// self-delivery and skipped by every network layer (see proto.Send). The
// sender is a recipient exactly when m carries its slot. eff.Sends is
// backed by a buffer the node reuses across calls, like eff.Monitor (see
// proto.Effects: effect slices are valid only until the next call into the
// automaton).
func (n *Node) multicast(recipients []int32, m *Message, eff *proto.Effects) {
	self := m.sender != 0
	if len(recipients) > 1 || !self {
		if eff.Sends == nil {
			eff.Sends = n.sendScratch[:0]
		}
		eff.Sends = append(eff.Sends, proto.Send{To: recipients, Payload: m})
		n.sendScratch = eff.Sends
	}
	if self {
		n.pendingSelf = append(n.pendingSelf, m)
	}
}

var _ proto.Automaton = (*Node)(nil)

// Clone deep-copies the node — used by the bounded model checker to
// branch over interleavings. The Config (including its function values) is
// shared; all mutable state is copied.
func (n *Node) Clone() *Node {
	out := &Node{
		cfg:            n.cfg,
		selfIdx:        n.selfIdx,
		keys:           n.keys,
		hasProposed:    n.hasProposed,
		started:        n.started,
		proposedValue:  n.proposedValue,
		maxView:        n.maxView,
		candidateView:  n.candidateView,
		pending:        n.pending, // names a class of uf, cloned below
		vp:             n.vp,
		round:          n.round,
		locallyCrashed: n.locallyCrashed.Clone(),
		monitored:      n.monitored.Clone(),
		views:          n.views.clone(),
		rejectDirty:    n.rejectDirty,
		// ownInst stays nil: it is a cache, refilled lazily against the
		// cloned view table.
	}
	if n.decided != nil {
		d := *n.decided
		out.decided = &d
	}
	if len(n.locallyCrashed) > 0 { // else uf is unsized or left from an earlier run
		out.uf = n.uf.Clone()
	}
	out.pendingSelf = append([]*Message(nil), n.pendingSelf[n.psHead:]...)
	out.violations = append([]string(nil), n.violations...)
	return out
}
