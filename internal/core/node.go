package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
//
// A Node is a header of a few words; the protocol state lives in a
// separate state that the node takes on its first crash notification or
// message (see activate). Most nodes of a large system never hear of a
// crash, and so they never pay for the sets, views and buffers the
// protocol keeps: a dormant node answers Start, Decided and every
// accessor from the header alone.
type Node struct {
	id graph.NodeID
	// selfIdx is the dense graph index of id (-1 if the node is not a
	// graph member, which only happens in synthetic tests). Effects name
	// nodes by dense index (see proto.Send), so this is the form of the
	// node's own identity the hot path compares against.
	selfIdx int32
	// started is set by the first Start, which subscribes to the node's
	// neighbours.
	started bool
	// run is what the node shares with the other nodes of its run: the
	// configuration, the view-key table and the pool states come from.
	run *run
	// st is the protocol state, nil while the node is dormant.
	st *state
}

// run is what the nodes of one run share. cfg has its defaults applied;
// its ID is not read (each node has its own). keys is the run's view-key
// table (see Factory), nil for a node built on its own. pool is where the
// nodes take their states from, nil for a node built on its own, which
// allocates its state.
type run struct {
	cfg  Config
	keys *region.KeyTable
	pool *statePool
}

// statePool hands out the protocol states of a Slab's runs. A state handed
// out in one run is handed out again in the next (the nodes of the earlier
// run are no longer in use by then, see Slab), reset by the node that
// takes it: reused run contexts allocate no states in steady state. Nodes
// activate from their runtime's goroutines or simulator lanes, so take
// locks; a node takes a state at most once per run.
type statePool struct {
	mu     sync.Mutex
	states []*state
	used   int
}

func (p *statePool) take() *state {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used == len(p.states) {
		p.states = append(p.states, new(state))
	}
	p.used++
	return p.states[p.used-1]
}

// state is a node's protocol state: everything but the header.
type state struct {
	// node is the node the state is active for; cfg and selfIdx are
	// copied from its run and header, which the hot path reads on every
	// call.
	node    *Node
	cfg     *Config
	selfIdx int32

	// decided is the protocol outcome (line 2: decided ← ⊥).
	decided *proto.Decision
	// hasProposed mirrors proposed ≠ ⊥ (lines 2, 14, 37). The proposed
	// value itself is proposedValue.
	hasProposed   bool
	proposedValue proto.Value

	// locallyCrashed is the set of nodes p has detected as crashed
	// (line 6), as a bitset over dense graph indices. monitored tracks
	// issued 〈monitorCrash〉 subscriptions so they are not re-issued
	// (semantically idempotent either way). A node can take its state for
	// a message before it detects any crash, so both stay empty (length 0)
	// until the first detection sizes them (see witness): until then
	// nothing is crashed and the monitored set is the node's neighbours if
	// it has started, nothing otherwise.
	locallyCrashed graph.Bitset
	monitored      graph.Bitset

	// uf is a union-find over the crashed nodes the node has detected,
	// maintained incrementally: when q crashes it gets an element of its
	// own and is united with its already-crashed neighbours, so the
	// connected components of the locally known crashed set (line 8) cost
	// amortised near-O(1) per detection instead of a whole-set
	// recomputation. Its elements are the detections, not the graph: the
	// s-th detected node is element s. crashed pairs each detected node's
	// graph index (high half) with its element (low half), in ascending
	// graph-index order, so a crashed node's element is one binary search
	// away (see crashedAt) and a component's members come out sorted. The
	// two cost 12 bytes per detected crash, whatever the size of the graph.
	uf      dsu.DSU
	crashed []uint64
	// compScratch is the reusable buffer for gathering the members of a
	// component about to be built as a Region. borderSeen is the scratch
	// bitset for the Region border computation (empty between calls), and
	// monitorScratch and sendScratch back eff.Monitor and eff.Sends across
	// calls — see subscribe and multicast. Scratch fields are never cloned;
	// a fresh state lazily regrows them.
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
	requireIdentity(cfg.ID, cfg.Graph)
	return &Node{id: cfg.ID, selfIdx: cfg.Graph.Index(cfg.ID), run: &run{cfg: withDefaults(cfg)}}
}

// requireIdentity panics unless a node can be built for id over g.
func requireIdentity(id graph.NodeID, g *graph.Graph) {
	if id == "" || g == nil {
		panic("core.New: Config.ID and Config.Graph are required")
	}
}

// withDefaults returns cfg with the default Propose and Pick filled in.
func withDefaults(cfg Config) Config {
	if cfg.Propose == nil {
		cfg.Propose = DefaultPropose
	}
	if cfg.Pick == nil {
		cfg.Pick = DefaultPick
	}
	return cfg
}

// activate returns n's state, taking one on the first call (see Node).
func (n *Node) activate() *state {
	if n.st != nil {
		return n.st
	}
	return n.wake()
}

// wake takes n's state: from the run's pool, or a new one.
func (n *Node) wake() *state {
	var st *state
	if n.run.pool != nil {
		st = n.run.pool.take()
	} else {
		st = new(state)
	}
	st.reset(n)
	n.st = st
	return st
}

// reset makes st the fresh state of n, keeping the memory of st's earlier
// use: its bitsets, union-find, scratch buffers, view-table map and the
// rest of its mask chunk. The kept sets are emptied to length 0: the first
// crash detection resizes and clears them (see witness). Nothing reset
// keeps is reachable from what an earlier run handed out (decisions,
// views, messages).
func (st *state) reset(n *Node) {
	clear(st.sendScratch)
	clear(st.pendingSelf)
	clear(st.violations)
	clear(st.views.slots)
	st.uf.Reset(0)
	*st = state{
		node:           n,
		cfg:            &n.run.cfg,
		selfIdx:        n.selfIdx,
		locallyCrashed: st.locallyCrashed[:0],
		monitored:      st.monitored[:0],
		uf:             st.uf,
		crashed:        st.crashed[:0],
		compScratch:    st.compScratch[:0],
		borderSeen:     st.borderSeen,
		monitorScratch: st.monitorScratch[:0],
		sendScratch:    st.sendScratch[:0],
		maskChunk:      st.maskChunk,
		views:          viewTable{slots: st.views.slots},
		pendingSelf:    st.pendingSelf[:0],
		violations:     st.violations[:0],
	}
	if st.borderSeen != nil {
		st.borderSeen = st.borderSeen.Reset(st.cfg.Graph.Len())
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
// element, so a run allocates one array of |V| node headers instead of |V|
// nodes, and a Slab reused for the next run allocates none — its nodes are
// made dormant again in place. The protocol states the nodes take come
// from the slab's pool and are reused the same way (see statePool). A
// factory hands each slab element out once; asking it for a node again (or
// for an ID outside the graph) gets a node of its own. The zero Slab is
// ready to use. Slab.Factory starts a new run: the nodes and states the
// previous factory handed out are reused, so they must no longer be in
// use. A slab's factory is not safe for concurrent calls; the runtimes
// build a run's nodes one after another.
type Slab struct {
	nodes  []Node
	handed graph.Bitset
	keys   *region.KeyTable
	run    run
	states statePool
}

// Factory returns the proto.Factory of one run over cfg.Graph, as the
// package-level Factory does, with its nodes cut from s.
func (s *Slab) Factory(cfg Config) proto.Factory {
	if s.keys == nil {
		s.keys = region.NewKeyTable()
	} else {
		s.keys.Reset()
	}
	s.run = run{cfg: withDefaults(cfg), keys: s.keys, pool: &s.states}
	s.states.used = 0
	armed := false
	return func(id graph.NodeID) proto.Automaton {
		g := cfg.Graph
		requireIdentity(id, g)
		if !armed {
			// Sized by the first node built, not when the factory is made:
			// a run pays for its nodes when it builds them.
			armed = true
			size := g.Len()
			if cap(s.nodes) < size {
				s.nodes = make([]Node, size)
			}
			s.nodes = s.nodes[:size]
			s.handed = s.handed.Reset(size)
		}
		i := g.Index(id)
		var n *Node
		if i >= 0 && !s.handed.Has(i) {
			s.handed.Set(i)
			n = &s.nodes[i]
		} else {
			n = new(Node)
		}
		*n = Node{id: id, selfIdx: i, run: &s.run}
		return n
	}
}

// ID returns the node's identity.
func (n *Node) ID() graph.NodeID { return n.id }

// dormant is what a dormant node reads as: the zero state, which no
// reader writes to.
var dormant state

// view returns n's state for reading: dormant until n takes a state.
func (n *Node) view() *state {
	if n.st != nil {
		return n.st
	}
	return &dormant
}

// Decided returns the decision taken by this node, or nil (line 36).
func (n *Node) Decided() *proto.Decision { return n.view().decided }

// HasProposed reports whether proposed ≠ ⊥.
func (n *Node) HasProposed() bool { return n.view().hasProposed }

// CurrentView returns V_p, the view of the node's current (or last)
// consensus instance; the empty region if it never proposed.
func (n *Node) CurrentView() region.Region { return n.view().vp }

// Round returns r, the node's current round within its own instance.
func (n *Node) Round() int { return n.view().round }

// LocallyCrashed returns the sorted set of nodes detected as crashed.
func (n *Node) LocallyCrashed() []graph.NodeID {
	crashed := n.view().crashed
	out := make([]graph.NodeID, 0, len(crashed))
	for _, c := range crashed {
		out = append(out, n.run.cfg.Graph.ID(int32(c>>32)))
	}
	return out
}

// MaxView returns the highest-ranked crashed region known locally.
func (n *Node) MaxView() region.Region {
	st := n.view()
	st.materialise()
	return st.maxView
}

// Violations returns internal invariant breaches recorded so far (always
// empty unless there is an implementation bug).
func (n *Node) Violations() []string {
	return append([]string(nil), n.view().violations...)
}

func (st *state) violatef(format string, args ...any) {
	st.violations = append(st.violations, fmt.Sprintf(format, args...))
}

// Start handles 〈init〉 (lines 1–4): subscribe to crashes of border(p).
// Before the first crash detection the subscription is recorded by
// started alone, and eff.Monitor is the graph's own adjacency row (a graph
// has no self-loops): read-only, and capped so that an append copies it.
func (n *Node) Start() proto.Effects {
	var eff proto.Effects
	switch {
	case n.selfIdx < 0:
	case n.view().witnessed():
		n.st.subscribe(n.run.cfg.Graph.NeighborIndices(n.selfIdx), &eff)
	case !n.started:
		n.started = true
		if row := n.run.cfg.Graph.NeighborIndices(n.selfIdx); len(row) > 0 {
			eff.Monitor = row[:len(row):len(row)]
		}
	}
	return eff
}

// witnessed reports whether the node has detected a crash.
func (st *state) witnessed() bool { return len(st.locallyCrashed) > 0 }

// witness sizes locallyCrashed and monitored for the run's graph on the
// first crash detection, with monitored holding what Start subscribed to.
// It is a no-op once they are sized.
func (st *state) witness() {
	if st.witnessed() {
		return
	}
	size := st.cfg.Graph.Len()
	st.locallyCrashed = st.locallyCrashed.Reset(size)
	st.monitored = st.monitored.Reset(size)
	if st.node.started {
		for _, qi := range st.cfg.Graph.NeighborIndices(st.selfIdx) {
			st.monitored.Set(qi)
		}
	}
}

// monitors reports whether the node has subscribed to crashes of qi.
func (n *Node) monitors(qi int32) bool {
	if !n.view().witnessed() {
		return n.started && slices.Contains(n.run.cfg.Graph.NeighborIndices(n.selfIdx), qi)
	}
	return n.st.monitored.Has(qi)
}

// knowsCrashed reports whether qi ∈ locallyCrashed.
func (st *state) knowsCrashed(qi int32) bool {
	return st.witnessed() && st.locallyCrashed.Has(qi)
}

// crashedAt returns the position in crashed of the first detected node
// whose graph index is at least qi.
func (st *state) crashedAt(qi int32) int {
	key := uint64(qi) << 32
	lo, hi := 0, len(st.crashed)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.crashed[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// subscribe issues 〈monitorCrash | S〉 for not-yet-monitored, not-yet-known
// crashed nodes (the \locallyCrashed of line 7); nodes holds dense graph
// indices, a CSR adjacency row. The sets must be sized (see witness).
// eff.Monitor is backed by a buffer the node reuses across calls (see
// proto.Effects: effect slices are valid only until the next call into
// the automaton).
func (st *state) subscribe(nodes []int32, eff *proto.Effects) {
	for _, qi := range nodes {
		if qi == st.selfIdx || st.monitored.Has(qi) || st.locallyCrashed.Has(qi) {
			continue
		}
		st.monitored.Set(qi)
		if eff.Monitor == nil {
			eff.Monitor = st.monitorScratch[:0]
		}
		eff.Monitor = append(eff.Monitor, qi)
	}
	if len(eff.Monitor) > cap(st.monitorScratch) {
		st.monitorScratch = eff.Monitor
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
	st := n.activate()
	qi := st.cfg.Graph.Index(q)
	if qi < 0 {
		// The perfect failure detector only reports graph members; anything
		// else is a harness bug.
		st.violatef("crash notification for unknown node %s", q)
		return eff
	}
	st.witness()
	if st.locallyCrashed.Has(qi) {
		return eff // duplicate notification; idempotent
	}
	row := st.cfg.Graph.NeighborIndices(qi)
	st.locallyCrashed.Set(qi) // line 6
	st.subscribe(row, &eff)   // line 7
	slot := st.uf.Add()       // q's union-find element
	st.crashed = slices.Insert(st.crashed, st.crashedAt(qi), uint64(qi)<<32|uint64(slot))
	for _, m := range row {
		if st.locallyCrashed.Has(m) {
			st.uf.Union(slot, int32(st.crashed[st.crashedAt(m)]))
		}
	}
	// Rule 1 of the ranking compares cardinality first. A strictly larger
	// component outranks maxView without its border or key being known; a
	// strictly smaller one never can; only a tie needs both Regions.
	max := st.maxView.Len()
	if st.pending.size > 0 {
		max = int(st.pending.size)
	}
	root := st.uf.Find(slot)
	switch size := st.uf.SizeOf(root); {
	case int(size) > max: // lines 9–11, deferred
		st.pending = pendingView{root: root, size: size}
	case int(size) == max:
		st.materialise()
		if comp := st.component(root); region.Less(&st.maxView, &comp) { // line 9
			st.maxView = comp       // line 10
			st.candidateView = comp // line 11
		}
	}
	st.runGuards(&eff)
	return eff
}

// component builds the Region of the union-find class rooted at root: one
// pass over the crashed nodes in graph-index order to gather the members,
// then the border and key construction.
func (st *state) component(root int32) region.Region {
	members := st.compScratch[:0]
	for _, c := range st.crashed {
		if st.uf.Find(int32(c)) == root {
			members = append(members, int32(c>>32))
		}
	}
	st.compScratch = members
	if st.borderSeen == nil {
		st.borderSeen = graph.NewBitset(st.cfg.Graph.Len())
	}
	return region.NewFromIndicesScratch(st.cfg.Graph, members, st.locallyCrashed, st.borderSeen, st.node.run.keys)
}

// materialise performs the deferred lines 10–11: if a component is
// pending, build it and make it maxView and candidateView. It changes no
// observable state, so read-only accessors may call it.
func (st *state) materialise() {
	if st.pending.size == 0 {
		return
	}
	comp := st.component(st.pending.root)
	st.pending = pendingView{}
	st.maxView, st.candidateView = comp, comp
}

// OnMessage handles 〈mDeliver | from, payload〉 (lines 18–25), then runs
// the guard loop. The protocol's payload is a *Message.
func (n *Node) OnMessage(from graph.NodeID, payload proto.Payload) proto.Effects {
	var eff proto.Effects
	st := n.activate()
	m, ok := payload.(*Message)
	if !ok || m == nil {
		st.violatef("foreign payload %T from %s", payload, from)
		return eff
	}
	st.deliver(m)
	st.runGuards(&eff)
	return eff
}

// deliver merges one message into the per-view bookkeeping (lines 18–25).
// The message is shared with its other recipients, so nothing here writes
// to it.
func (st *state) deliver(m *Message) {
	hash, key := m.View.Identity()
	slot := st.views.lookup(hash, key)
	if slot == nil { // lines 19–22: initialise data structures for V
		inst := newInstance(m.View, st.cfg.LiteralPaperRounds)
		slot = st.views.insert(hash, key, inst)
		st.rejectDirty = true
	}
	inst := slot.inst
	if inst == nil { // line 18: V ∉ rejected
		return
	}
	if !inst.validRound(m.Round) {
		st.violatef("message round %d out of range for view %s (|B|=%d)",
			m.Round, m.View, len(inst.borderIdx))
		return
	}
	if len(m.masks) != 2*inst.words || m.values != nil && len(m.values) != len(inst.borderIdx) {
		st.violatef("message opinions (%d mask words, %d values) do not fit |B|=%d for view %s",
			len(m.masks), len(m.values), len(inst.borderIdx), m.View)
		return
	}
	if !sameBorder(&m.View, &inst.view) {
		// The merge below is positional: a vector indexed by another
		// border would land in the wrong participants' slots.
		st.violatef("message border %v ≠ instance border %v for view %s",
			m.View.Border(), inst.view.Border(), m.View)
		return
	}
	if j := inst.merge(m.Round, int(m.sender)-1, m.masks, m.values); j >= 0 {
		st.violatef("view %s: %s accepts with %q, already known to accept with %q",
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
func (st *state) runGuards(eff *proto.Effects) {
	// The sends of the previous call are dead now that the automaton is
	// called again: let go of their payloads before the buffer is reused.
	clear(st.sendScratch)
	st.sendScratch = st.sendScratch[:0]
	for {
		if st.psHead < len(st.pendingSelf) {
			m := st.pendingSelf[st.psHead]
			st.psHead++
			if st.psHead == len(st.pendingSelf) {
				clear(st.pendingSelf) // release payload references
				st.pendingSelf = st.pendingSelf[:0]
				st.psHead = 0
			}
			st.deliver(m)
			continue
		}
		if st.guardPropose(eff) {
			continue
		}
		if st.guardReject(eff) {
			continue
		}
		if st.guardRound(eff) {
			continue
		}
		return
	}
}

// guardPropose implements lines 12–17: start a new consensus instance when
// no proposal is outstanding and a candidate view exists.
func (st *state) guardPropose(eff *proto.Effects) bool {
	if st.hasProposed {
		return false
	}
	st.materialise()
	if st.candidateView.IsEmpty() {
		return false
	}
	st.vp = st.candidateView                 // line 13
	st.candidateView = region.Empty          //
	st.proposedValue = st.cfg.Propose(st.vp) // line 14
	st.hasProposed = true
	st.round = 1          // line 16
	st.rejectDirty = true // vp moved: lower-ranked received views may now exist
	st.ownInst = nil
	if s := st.views.lookup(st.vp.Hash(), st.vp.Key()); s != nil && s.inst == nil {
		// Lemma 2 guarantees this cannot happen; record it if it does.
		st.violatef("proposing previously rejected view %s", st.vp)
	}
	if !st.vp.OnBorderIndex(st.selfIdx) {
		st.violatef("proposing view %s not bordered by self", st.vp)
	}
	eff.Proposed = append(eff.Proposed, st.vp)

	if st.vp.BorderLen() == 1 {
		// Deviation from Algorithm 1: there is nobody to flood to when
		// this node is the region's only border (the printed |B|−1 round
		// count is zero, and the multicast of line 17 would reach only the
		// sender), so no instance is created. The 1-participant consensus
		// decides its own value at once — its final vector is its own
		// accept — which CD7 (progress) requires of it: it is the cluster's
		// only possible decider.
		st.decided = &proto.Decision{View: st.vp, Value: st.cfg.Pick([]proto.Value{st.proposedValue})}
		eff.Decision = st.decided
		return true
	}
	msg := st.firstMessage(&st.vp, true)          // lines 15–16
	st.multicast(st.vp.BorderIndices(), msg, eff) // line 17
	return true
}

// guardReject implements lines 26–31: reject every received view strictly
// lower-ranked than the node's own proposal, lowest-ranked first.
func (st *state) guardReject(eff *proto.Effects) bool {
	if st.cfg.DisableArbitration || st.vp.IsEmpty() {
		// V_p persists across resets (line 37 clears proposed, not V_p),
		// so a node keeps rejecting lower-ranked views between proposals.
		return false
	}
	if !st.rejectDirty {
		// Neither received nor vp changed since the last empty scan, so
		// the scan below would find nothing again.
		return false
	}
	// Single linear scan for the lowest-ranked received view strictly below
	// V_p (table order does not matter: ≺ is a strict total order, so the
	// minimum is unique).
	var lowest *viewSlot
	for s := range st.views.all {
		if s.inst != nil && region.Less(&s.inst.view, &st.vp) &&
			(lowest == nil || region.Less(&s.inst.view, &lowest.inst.view)) {
			lowest = s
		}
	}
	if lowest == nil {
		st.rejectDirty = false
		return false
	}
	l := &lowest.inst.view
	lowest.inst = nil                         // line 30: received ← received\{L}, rejected ← rejected ∪ {L}
	msg := st.firstMessage(l, false)          // lines 29–30
	st.multicast(l.BorderIndices(), msg, eff) // line 31
	eff.Rejected = append(eff.Rejected, *l)
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
func (st *state) guardRound(eff *proto.Effects) bool {
	if !st.hasProposed || st.decided != nil {
		return false
	}
	inst := st.ownInst
	if inst == nil {
		s := st.views.lookup(st.vp.Hash(), st.vp.Key())
		if s == nil || s.inst == nil { // line 32: Vp ∈ received
			return false
		}
		inst = s.inst
		st.ownInst = inst
	}
	if !inst.validRound(st.round) {
		return false
	}
	waiting := inst.waiting(st.round)
	for w := 0; w < inst.words; w++ { // waiting[Vp][r]\locallyCrashed = ∅
		left := inst.allOf(w)
		if waiting != nil {
			left = waiting[w]
		}
		for ; left != 0; left &= left - 1 {
			j := w<<6 | bits.TrailingZeros64(left)
			if !st.knowsCrashed(inst.borderIdx[j]) {
				return false
			}
		}
	}
	if st.round == inst.lastRound { // line 33: consensus instance completed
		if inst.unanimous(st.round) { // line 34
			// Pick gets a copy: a user's may sort its argument, and the
			// column is shared with the messages sent about the view.
			values := slices.Clone(inst.values)
			st.decided = &proto.Decision{View: st.vp, Value: st.cfg.Pick(values)} // line 35
			eff.Decision = st.decided                                             // line 36
		} else {
			st.hasProposed = false // line 37: proposed ← ⊥, reset
			eff.Resets++
		}
		return true
	}
	st.round++       // line 39
	msg := &Message{ // line 40
		Round:  st.round,
		View:   st.vp,
		masks:  st.maskSpace(inst.words),
		values: inst.values, // shared, not copied: see instance.values
		sender: st.senderSlot(inst.borderIdx),
	}
	inst.opinions(msg.masks, st.round-1)
	st.multicast(inst.borderIdx, msg, eff)
	return true
}

// senderSlot returns Message.sender for a message from this node to the
// participants borderIdx: 1 + the node's position among them, 0 if it is
// not one of them.
func (st *state) senderSlot(borderIdx []int32) int32 {
	if j, ok := slices.BinarySearch(borderIdx, st.selfIdx); ok {
		return int32(j) + 1
	}
	return 0
}

// firstMessage builds this node's round-1 message about view: its own
// accept of proposedValue (lines 15–16) or, if accept is false, its reject
// (lines 29–30) in its own slot, ⊥ in every other. Senders are border
// members; a node that is not (a violation guardPropose records) sends
// all ⊥.
func (st *state) firstMessage(view *region.Region, accept bool) *Message {
	border := view.BorderIndices()
	words := maskWords(len(border))
	m := &Message{Round: 1, View: *view, masks: st.maskSpace(words),
		sender: st.senderSlot(border)}
	if m.sender == 0 {
		return m
	}
	j := int(m.sender) - 1
	bit := uint64(1) << uint(j&63)
	m.masks[j>>6] |= bit
	if accept {
		m.values = make([]proto.Value, len(border))
		m.values[j] = st.proposedValue
	} else {
		m.masks[words+j>>6] |= bit
	}
	return m
}

// maskSpace returns 2·words zero words for the masks of one message, cut
// from a chunk that serves eight messages: masks are a few words each,
// so one allocation per multicast would add an object to every message the
// node builds. A chunk is garbage once the messages cut from it are.
func (st *state) maskSpace(words int) []uint64 {
	if len(st.maskChunk) < 2*words {
		st.maskChunk = make([]uint64, 16*words)
	}
	masks := st.maskChunk[: 2*words : 2*words]
	st.maskChunk = st.maskChunk[2*words:]
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
func (st *state) multicast(recipients []int32, m *Message, eff *proto.Effects) {
	self := m.sender != 0
	if len(recipients) > 1 || !self {
		if eff.Sends == nil {
			eff.Sends = st.sendScratch[:0]
		}
		eff.Sends = append(eff.Sends, proto.Send{To: recipients, Payload: m})
		st.sendScratch = eff.Sends
	}
	if self {
		st.pendingSelf = append(st.pendingSelf, m)
	}
}

var _ proto.Automaton = (*Node)(nil)

// Clone deep-copies the node — used by the bounded model checker to
// branch over interleavings. The Config (including its function values) is
// shared; all mutable state is copied. The clone of a dormant node is
// dormant; an active node's clone gets a state of its own, never one from
// the pool.
func (n *Node) Clone() *Node {
	out := &Node{id: n.id, selfIdx: n.selfIdx, started: n.started, run: n.run}
	st := n.st
	if st == nil {
		return out
	}
	c := &state{
		node:           out,
		cfg:            st.cfg,
		selfIdx:        st.selfIdx,
		hasProposed:    st.hasProposed,
		proposedValue:  st.proposedValue,
		maxView:        st.maxView,
		candidateView:  st.candidateView,
		pending:        st.pending, // names a class of uf, cloned below
		vp:             st.vp,
		round:          st.round,
		locallyCrashed: st.locallyCrashed.Clone(),
		monitored:      st.monitored.Clone(),
		uf:             *st.uf.Clone(),
		crashed:        slices.Clone(st.crashed),
		views:          st.views.clone(),
		rejectDirty:    st.rejectDirty,
		// ownInst stays nil: it is a cache, refilled lazily against the
		// cloned view table.
	}
	if st.decided != nil {
		d := *st.decided
		c.decided = &d
	}
	c.pendingSelf = append([]*Message(nil), st.pendingSelf[st.psHead:]...)
	c.violations = append([]string(nil), st.violations...)
	out.st = c
	return out
}
