// Package baseline implements the comparison points for the experiment
// tables:
//
//   - Global: a whole-system flooding uniform consensus on the crashed
//     region — the "traditional consensus approach that would involve the
//     entire network in a protocol run" which the paper's Locality property
//     (CD3) explicitly excludes (§2.1). Every node monitors every other
//     node and every round floods the full proposal map to all N−1 peers,
//     so its cost grows with the system even when the crashed region is
//     tiny. The T1 table contrasts this with the cliff-edge protocol's
//     size-independent cost.
//
//   - The no-arbitration ablation of the cliff-edge core is reached through
//     core.Config.DisableArbitration (see scenario.Spec) rather than a type
//     here; this package provides the workload helpers for it.
package baseline

import (
	"sort"

	"cliffedge/internal/dsu"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// Proposal is one node's current claim: the highest-ranked crashed region
// it has detected, with the decision value it attaches to that region.
type Proposal struct {
	ViewKey string
	Value   proto.Value
}

// GlobalMsg is a flooding round message: the sender's round number and its
// latest known proposal per participant. Nil-keyed entries are simply
// absent. A Decide message (Decided true) short-circuits termination: the
// first decider broadcasts its outcome and everyone adopts it.
//
// Version counts mutations of the sender's proposal map; a receiver that
// already merged this sender at the same version skips the O(N) merge (an
// optimisation only — the map content per version is immutable, so
// skipping is semantics-preserving).
type GlobalMsg struct {
	Round     int
	Version   int
	Proposals map[graph.NodeID]Proposal
	Decided   bool
	Decision  Proposal
}

// Kind labels the payload for traces.
func (m GlobalMsg) Kind() string { return "global" }

// WireSize estimates the encoded size: proposals dominate — this is where
// the O(N) per-message cost of whole-system flooding shows up.
func (m GlobalMsg) WireSize() int {
	size := 5
	for q, p := range m.Proposals {
		size += len(q) + len(p.ViewKey) + len(p.Value) + 3
	}
	if m.Decided {
		size += len(m.Decision.ViewKey) + len(m.Decision.Value)
	}
	return size
}

var _ proto.Payload = GlobalMsg{}

// GlobalConfig parameterises one participant of the global consensus.
type GlobalConfig struct {
	ID    graph.NodeID
	Graph *graph.Graph
	// Propose maps a detected region to this node's decision value;
	// defaults to "repair(<key>)".
	Propose func(region.Region) proto.Value
}

// GlobalNode is one participant of the whole-system flooding consensus.
// It joins the protocol on its first crash detection or incoming round
// message, re-floods the merged proposal map every round, and decides when
// the map is stable across two consecutive rounds (the classical
// early-stopping rule; the paper cites the same optimisation for its own
// instances in footnote 6).
type GlobalNode struct {
	cfg     GlobalConfig
	all     []graph.NodeID // every participant: the whole system
	crashed graph.Bitset   // locally detected crashes, by dense index
	// everyone is every dense graph index, the recipients of each flood.
	// The node's own index is among them, which runtimes skip (see
	// proto.Send), so one immutable slice serves every node of a run.
	everyone []int32
	// regions is the shared incremental union-find over the crashed set:
	// each detection unites q with its already-crashed neighbours, so
	// maxView tracking costs amortised near-O(1) per crash instead of a
	// whole-set ConnectedComponents recomputation. Allocated on the first
	// detection.
	regions     *dsu.DSU
	compScratch []int32
	maxView     region.Region

	started   bool
	round     int
	proposals map[graph.NodeID]Proposal // latest known per participant
	version   int                       // bumped on every proposals mutation
	mapHash   uint64                    // rolling XOR of entry hashes (order-free)
	prevKey   uint64                    // fingerprint of proposals at previous round
	prevSet   bool                      // prevKey holds round-1's fingerprint
	gotRound  map[graph.NodeID]int      // highest round received per peer
	needed    map[graph.NodeID]bool     // peers not yet heard at the current round
	mergedVer map[graph.NodeID]int      // last merged map version per peer
	snapshot  map[graph.NodeID]Proposal // cached outgoing snapshot
	snapVer   int                       // version the snapshot was taken at
	decided   *proto.Decision

	// rankCache memoises (|V|, |border(V)|) per view key: proposal
	// comparisons happen once per map entry per delivered message, and
	// recomputing borders there would dominate the whole run.
	rankCache map[string][2]int
}

// allIndices returns 0, 1, …, g.Len()−1.
func allIndices(g *graph.Graph) []int32 {
	out := make([]int32, g.Len())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// newGlobal builds a participant whose floods go to everyone, every index
// of cfg.Graph (see GlobalNode.everyone).
func newGlobal(cfg GlobalConfig, everyone []int32) *GlobalNode {
	if cfg.ID == "" || cfg.Graph == nil {
		panic("baseline: GlobalConfig.ID and GlobalConfig.Graph are required")
	}
	if cfg.Propose == nil {
		cfg.Propose = func(v region.Region) proto.Value {
			return proto.Value("repair(" + v.Key() + ")")
		}
	}
	return &GlobalNode{
		cfg:       cfg,
		all:       cfg.Graph.Nodes(),
		everyone:  everyone,
		crashed:   graph.NewBitset(cfg.Graph.Len()),
		proposals: make(map[graph.NodeID]Proposal),
		gotRound:  make(map[graph.NodeID]int),
		mergedVer: make(map[graph.NodeID]int),
		rankCache: make(map[string][2]int),
		snapVer:   -1,
	}
}

// ID implements proto.Automaton.
func (n *GlobalNode) ID() graph.NodeID { return n.cfg.ID }

// Decided implements proto.Automaton.
func (n *GlobalNode) Decided() *proto.Decision { return n.decided }

// Start subscribes to crash notifications for the entire system — the
// non-local monitoring burden that motivates cliff-edge consensus.
func (n *GlobalNode) Start() proto.Effects {
	var eff proto.Effects
	for i, q := range n.all {
		if q != n.cfg.ID {
			eff.Monitor = append(eff.Monitor, int32(i))
		}
	}
	return eff
}

// OnCrash updates the local view and (re-)enters the flooding rounds.
// Only the component containing q can have changed since the previous
// detection, and maxView already ranks at or above every other component,
// so comparing maxView against q's (grown or merged) component alone is
// equivalent to recomputing connected components of the whole crashed set.
func (n *GlobalNode) OnCrash(q graph.NodeID) proto.Effects {
	var eff proto.Effects
	qi := n.cfg.Graph.Index(q)
	if qi < 0 || n.crashed.Has(qi) {
		return eff
	}
	n.crashed.Set(qi)
	delete(n.needed, q)
	if n.regions == nil {
		n.regions = dsu.New(n.cfg.Graph.Len())
	}
	for _, m := range n.cfg.Graph.NeighborIndices(qi) {
		if n.crashed.Has(m) {
			n.regions.Union(qi, m)
		}
	}
	root := n.regions.Find(qi)
	members := n.compScratch[:0]
	n.crashed.ForEach(func(i int32) {
		if n.regions.Find(i) == root {
			members = append(members, i)
		}
	})
	n.compScratch = members
	if comp := region.NewFromIndicesScratch(n.cfg.Graph, members, n.crashed, nil, nil); region.Less(&n.maxView, &comp) {
		n.maxView = comp
	}
	if n.decided != nil {
		return eff
	}
	n.refreshOwnProposal()
	if !n.started {
		n.begin(&eff)
	}
	n.tryAdvance(&eff)
	return eff
}

// OnMessage merges a round message or adopts a broadcast decision.
func (n *GlobalNode) OnMessage(from graph.NodeID, payload proto.Payload) proto.Effects {
	var eff proto.Effects
	m, ok := payload.(GlobalMsg)
	if !ok || n.decided != nil {
		return eff
	}
	if m.Decided {
		n.adopt(m.Decision, &eff)
		return eff
	}
	if m.Round > n.gotRound[from] {
		n.gotRound[from] = m.Round
	}
	if n.started && m.Round >= n.round {
		delete(n.needed, from)
	}
	if last, ok := n.mergedVer[from]; !ok || last != m.Version {
		n.mergedVer[from] = m.Version
		for q, p := range m.Proposals {
			if cur, ok := n.proposals[q]; !ok || n.better(p, cur) {
				n.setProposal(q, cur, ok, p)
			}
		}
	}
	if !n.started {
		n.refreshOwnProposal()
		n.begin(&eff)
	}
	n.tryAdvance(&eff)
	return eff
}

// better prefers the higher-ranked claimed region, breaking ties on value.
// Ranking uses the memoised (size, border-size) pair plus the key itself,
// mirroring region.Less without rebuilding regions on the hot path.
func (n *GlobalNode) better(a, b Proposal) bool {
	if a.ViewKey == b.ViewKey {
		return a.Value < b.Value
	}
	ra, rb := n.rank(a.ViewKey), n.rank(b.ViewKey)
	if ra[0] != rb[0] {
		return ra[0] > rb[0]
	}
	if ra[1] != rb[1] {
		return ra[1] > rb[1]
	}
	return a.ViewKey > b.ViewKey
}

// rank memoises (|V|, |border(V)|) for a view key. A key naming a node
// outside the topology (a malformed message) ranks as ∅, below every view.
func (n *GlobalNode) rank(key string) [2]int {
	if r, ok := n.rankCache[key]; ok {
		return r
	}
	v, _ := region.FromKey(n.cfg.Graph, key)
	r := [2]int{v.Len(), v.BorderLen()}
	n.rankCache[key] = r
	return r
}

func (n *GlobalNode) refreshOwnProposal() {
	if n.maxView.IsEmpty() {
		return
	}
	p := Proposal{ViewKey: n.maxView.Key(), Value: n.cfg.Propose(n.maxView)}
	if cur, ok := n.proposals[n.cfg.ID]; !ok || n.better(p, cur) {
		n.setProposal(n.cfg.ID, cur, ok, p)
	}
}

// setProposal installs p for q, maintaining the version counter and the
// rolling map hash (XOR out the old entry, XOR in the new one).
func (n *GlobalNode) setProposal(q graph.NodeID, old Proposal, hadOld bool, p Proposal) {
	if hadOld {
		n.mapHash ^= entryHash(q, old)
	}
	n.proposals[q] = p
	n.mapHash ^= entryHash(q, p)
	n.version++
}

func entryHash(q graph.NodeID, p Proposal) uint64 {
	return fnv64(string(q), p.ViewKey, string(p.Value))
}

func (n *GlobalNode) begin(eff *proto.Effects) {
	n.started = true
	n.round = 1
	n.resetNeeded()
	n.flood(eff)
}

// flood multicasts the current proposal map to every other node, reusing
// the previous snapshot when nothing changed (payloads are immutable by
// convention, so sharing is safe).
func (n *GlobalNode) flood(eff *proto.Effects) {
	if n.snapVer != n.version {
		snapshot := make(map[graph.NodeID]Proposal, len(n.proposals))
		for q, p := range n.proposals {
			snapshot[q] = p
		}
		n.snapshot = snapshot
		n.snapVer = n.version
	}
	eff.Sends = append(eff.Sends, proto.Send{To: n.everyone,
		Payload: GlobalMsg{Round: n.round, Version: n.version, Proposals: n.snapshot}})
}

// resetNeeded rebuilds the waiting set for the current round: every
// non-crashed peer not yet heard at this round or beyond. O(N) once per
// round; message arrivals then shrink it in O(1).
func (n *GlobalNode) resetNeeded() {
	n.needed = make(map[graph.NodeID]bool, len(n.all))
	for i, q := range n.all {
		// i is q's dense index: Nodes() is in sorted order by construction.
		if q == n.cfg.ID || n.crashed.Has(int32(i)) || n.gotRound[q] >= n.round {
			continue
		}
		n.needed[q] = true
	}
}

// tryAdvance completes the current round once every non-crashed
// participant has been heard at this round or beyond, then either decides
// (stable proposal map) or floods the next round.
func (n *GlobalNode) tryAdvance(eff *proto.Effects) {
	for n.decided == nil {
		if len(n.needed) > 0 {
			return
		}
		key := n.mapHash
		if n.prevSet && key == n.prevKey {
			n.decide(eff)
			return
		}
		n.prevKey = key
		n.prevSet = true
		n.round++
		n.resetNeeded()
		n.refreshOwnProposal()
		n.flood(eff)
	}
}

// fnv64 hashes the concatenation of its parts with FNV-1a.
func fnv64(parts ...string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // separator
		h *= prime
	}
	return h
}

// decide picks the highest-ranked proposed region (ties on value broken by
// minimum), installs the decision and broadcasts it so laggards terminate.
func (n *GlobalNode) decide(eff *proto.Effects) {
	type cand struct {
		view  region.Region
		value proto.Value
	}
	var cands []cand
	for _, p := range n.proposals {
		// An empty key, or one naming a node outside the topology, is no
		// region to decide.
		if v, err := region.FromKey(n.cfg.Graph, p.ViewKey); err == nil && !v.IsEmpty() {
			cands = append(cands, cand{v, p.Value})
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].view.Equal(cands[j].view) {
			return region.Less(&cands[j].view, &cands[i].view)
		}
		return cands[i].value < cands[j].value
	})
	n.adoptDecision(cands[0].view, cands[0].value, eff)
	eff.Sends = append(eff.Sends, proto.Send{To: n.everyone, Payload: GlobalMsg{
		Decided:  true,
		Decision: Proposal{ViewKey: cands[0].view.Key(), Value: cands[0].value},
	}})
}

// adopt installs a broadcast decision, unless its key names a node outside
// the topology.
func (n *GlobalNode) adopt(p Proposal, eff *proto.Effects) {
	if v, err := region.FromKey(n.cfg.Graph, p.ViewKey); err == nil {
		n.adoptDecision(v, p.Value, eff)
	}
}

func (n *GlobalNode) adoptDecision(v region.Region, val proto.Value, eff *proto.Effects) {
	if n.decided != nil {
		return
	}
	n.decided = &proto.Decision{View: v, Value: val}
	eff.Decision = n.decided
}

var _ proto.Automaton = (*GlobalNode)(nil)

// GlobalFactory builds the factory for a whole-system consensus run.
func GlobalFactory(g *graph.Graph) proto.Factory {
	everyone := allIndices(g)
	return func(id graph.NodeID) proto.Automaton {
		return newGlobal(GlobalConfig{ID: id, Graph: g}, everyone)
	}
}
