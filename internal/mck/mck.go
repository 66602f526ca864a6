// Package mck is a bounded model checker for the cliff-edge consensus
// core: it explores EVERY interleaving of message deliveries, failure
// detections and crash injections on a small topology, asserting the
// safety properties (CD1 integrity, CD2 view accuracy, CD3 locality, CD5
// uniform border agreement, CD6 view convergence) in every reachable
// state, and the liveness properties (CD4 border termination, CD7
// progress) in every terminal (quiescent) state.
//
// The exploration is a depth-first search over global protocol states,
// deduplicated by canonical state fingerprints: interleavings that
// converge to the same state share one subtree. Channels are FIFO, so
// only queue heads are deliverable; failure detections are unordered, so
// every pending detection is schedulable; crashes can be injected at any
// point — exactly the nondeterminism the paper's asynchronous model
// allows.
//
// The checker found the round-count flaw documented in the core package:
// with Algorithm 1's literal |B|−1 rounds (Config.LiteralPaperRounds),
// uniform border agreement (CD5) fails on a 4-node path; with the
// corrected |B| rounds the full state space is violation-free.
package mck

import (
	"fmt"
	"sort"
	"strings"

	"cliffedge/internal/core"
	"cliffedge/internal/dsu"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// Config parameterises one exploration.
type Config struct {
	// Graph is the topology; keep it small (≤ ~8 nodes) — the state space
	// grows exponentially with concurrency even after deduplication.
	Graph *graph.Graph
	// Crashes are the nodes that will crash; the checker explores every
	// point at which each crash can happen relative to all other actions.
	Crashes []graph.NodeID
	// MaxStates caps the number of distinct states explored;
	// Outcome.Truncated reports whether the cap was hit. Defaults to
	// 2,000,000.
	MaxStates int
	// LiteralPaperRounds runs the core with Algorithm 1's printed |B|−1
	// round count instead of the corrected |B| rounds.
	LiteralPaperRounds bool
}

// Outcome summarises one exploration.
type Outcome struct {
	StatesExplored int // distinct states visited
	RunsCompleted  int // terminal (quiescent) states reached
	Truncated      bool
	Violations     []string
	// DecidedViews is the set of view keys decided in any explored run.
	DecidedViews map[string]bool
	// MaxDepth is the longest action sequence seen.
	MaxDepth int
}

// Ok reports whether no property was violated anywhere in the explored
// space.
func (o *Outcome) Ok() bool { return len(o.Violations) == 0 }

type channelKey struct{ from, to graph.NodeID }

type decisionRec struct {
	node  graph.NodeID
	view  region.Region
	value proto.Value
}

// state is one node of the exploration tree.
type state struct {
	nodes     map[graph.NodeID]*core.Node
	channels  map[channelKey][]*core.Message
	detects   map[graph.NodeID][]graph.NodeID // subscriber → crashed nodes to notify
	subs      map[graph.NodeID]map[graph.NodeID]bool
	crashed   map[graph.NodeID]bool
	pending   []graph.NodeID // crashes not yet injected
	decisions []decisionRec
	depth     int
}

func (s *state) clone() *state {
	out := &state{
		nodes:     make(map[graph.NodeID]*core.Node, len(s.nodes)),
		channels:  make(map[channelKey][]*core.Message, len(s.channels)),
		detects:   make(map[graph.NodeID][]graph.NodeID, len(s.detects)),
		subs:      make(map[graph.NodeID]map[graph.NodeID]bool, len(s.subs)),
		crashed:   make(map[graph.NodeID]bool, len(s.crashed)),
		pending:   append([]graph.NodeID(nil), s.pending...),
		decisions: append([]decisionRec(nil), s.decisions...),
		depth:     s.depth,
	}
	for id, n := range s.nodes {
		out.nodes[id] = n.Clone()
	}
	for k, q := range s.channels {
		if len(q) > 0 {
			out.channels[k] = append([]*core.Message(nil), q...)
		}
	}
	for k, q := range s.detects {
		if len(q) > 0 {
			out.detects[k] = append([]graph.NodeID(nil), q...)
		}
	}
	for k, set := range s.subs {
		m := make(map[graph.NodeID]bool, len(set))
		for q := range set {
			m[q] = true
		}
		out.subs[k] = m
	}
	for k := range s.crashed {
		out.crashed[k] = true
	}
	return out
}

// fingerprint canonically serialises the global state. Decision history is
// derivable from node states (decided fields survive crashes), so it is
// not included.
func (s *state) fingerprint(g *graph.Graph) string {
	var sb strings.Builder
	for _, id := range g.Nodes() {
		sb.WriteString(s.nodes[id].Fingerprint())
		sb.WriteByte('\n')
	}
	keys := make([]channelKey, 0, len(s.channels))
	for k := range s.channels {
		if len(s.channels[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		fmt.Fprintf(&sb, "ch%s>%s:", k.from, k.to)
		for _, m := range s.channels[k] {
			sb.WriteString(core.MessageFingerprint(m))
			sb.WriteByte(';')
		}
	}
	subscribers := make([]graph.NodeID, 0, len(s.detects))
	for p := range s.detects {
		subscribers = append(subscribers, p)
	}
	graph.SortIDs(subscribers)
	for _, p := range subscribers {
		ds := append([]graph.NodeID(nil), s.detects[p]...)
		graph.SortIDs(ds)
		fmt.Fprintf(&sb, "dt%s:%v;", p, ds)
	}
	pend := append([]graph.NodeID(nil), s.pending...)
	graph.SortIDs(pend)
	fmt.Fprintf(&sb, "pend%v;crash%v", pend, graph.SetToSlice(s.crashed))
	return sb.String()
}

// action is one schedulable step.
type action struct {
	kind    byte // 'c' crash, 'd' detect, 'm' message
	node    graph.NodeID
	peer    graph.NodeID
	pendIdx int // for crashes/detects: index into the pending slice
}

// explorer carries the immutable context and accumulates the outcome.
type explorer struct {
	g        *graph.Graph
	cfg      Config
	out      *Outcome
	visited  map[string]bool
	domains  []region.Region               // final faulty domains (every crash happens)
	inDomain map[graph.NodeID]map[int]bool // final-domain membership for CD3
	stopped  bool
}

// Explore runs the bounded DFS.
func Explore(cfg Config) (*Outcome, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("mck: Config.Graph is required")
	}
	if cfg.MaxStates == 0 {
		cfg.MaxStates = 2_000_000
	}
	for _, c := range cfg.Crashes {
		if !cfg.Graph.Has(c) {
			return nil, fmt.Errorf("mck: unknown crash node %q", c)
		}
	}
	e := &explorer{
		g:        cfg.Graph,
		cfg:      cfg,
		out:      &Outcome{DecidedViews: make(map[string]bool)},
		visited:  make(map[string]bool),
		inDomain: make(map[graph.NodeID]map[int]bool),
	}
	// CD3 and the terminal-state properties are judged against the final
	// faulty domains, which are known up front: every scheduled crash
	// eventually happens, so every terminal (quiescent) state carries the
	// full crash set. Computed once via the shared union-find.
	finalCrashed := graph.NewBitset(cfg.Graph.Len())
	for _, c := range cfg.Crashes {
		finalCrashed.Set(cfg.Graph.Index(c))
	}
	e.domains = region.Domains(cfg.Graph, finalCrashed)
	for i, dom := range e.domains {
		for _, n := range dom.Nodes() {
			e.mark(n, i)
		}
		for _, n := range dom.Border() {
			e.mark(n, i)
		}
	}

	root := &state{
		nodes:    make(map[graph.NodeID]*core.Node, cfg.Graph.Len()),
		channels: make(map[channelKey][]*core.Message),
		detects:  make(map[graph.NodeID][]graph.NodeID),
		subs:     make(map[graph.NodeID]map[graph.NodeID]bool),
		crashed:  make(map[graph.NodeID]bool),
		pending:  append([]graph.NodeID(nil), cfg.Crashes...),
	}
	for _, id := range cfg.Graph.Nodes() {
		n := core.New(core.Config{ID: id, Graph: cfg.Graph,
			LiteralPaperRounds: cfg.LiteralPaperRounds})
		root.nodes[id] = n
		e.applyEffects(root, id, n.Start())
	}
	e.dfs(root)
	return e.out, nil
}

func (e *explorer) mark(n graph.NodeID, i int) {
	if e.inDomain[n] == nil {
		e.inDomain[n] = make(map[int]bool)
	}
	e.inDomain[n][i] = true
}

func (e *explorer) violatef(format string, args ...any) {
	if len(e.out.Violations) < 20 { // keep reports readable
		e.out.Violations = append(e.out.Violations, fmt.Sprintf(format, args...))
	}
}

// dfs explores all interleavings from s, deduplicating converged states.
func (e *explorer) dfs(s *state) {
	if e.stopped {
		return
	}
	fp := s.fingerprint(e.g)
	if e.visited[fp] {
		return
	}
	e.visited[fp] = true
	e.out.StatesExplored++
	if e.out.StatesExplored >= e.cfg.MaxStates {
		e.out.Truncated = true
		e.stopped = true
		return
	}
	if s.depth > e.out.MaxDepth {
		e.out.MaxDepth = s.depth
	}
	actions := e.enabled(s)
	if len(actions) == 0 {
		e.out.RunsCompleted++
		e.checkTerminal(s)
		return
	}
	for _, a := range actions {
		next := s.clone()
		next.depth++
		e.apply(next, a)
		e.dfs(next)
		if e.stopped {
			return
		}
	}
}

// enabled lists all schedulable actions, deterministically ordered.
func (e *explorer) enabled(s *state) []action {
	var out []action
	for i, n := range s.pending {
		out = append(out, action{kind: 'c', node: n, pendIdx: i})
	}
	subscribers := make([]graph.NodeID, 0, len(s.detects))
	for p := range s.detects {
		subscribers = append(subscribers, p)
	}
	graph.SortIDs(subscribers)
	for _, p := range subscribers {
		for i := range s.detects[p] {
			out = append(out, action{kind: 'd', node: p, pendIdx: i})
		}
	}
	keys := make([]channelKey, 0, len(s.channels))
	for k := range s.channels {
		if len(s.channels[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		out = append(out, action{kind: 'm', node: k.to, peer: k.from})
	}
	return out
}

func (e *explorer) apply(s *state, a action) {
	switch a.kind {
	case 'c':
		s.pending = append(s.pending[:a.pendIdx], s.pending[a.pendIdx+1:]...)
		if s.crashed[a.node] {
			return
		}
		s.crashed[a.node] = true
		for p := range s.subs[a.node] {
			if !s.crashed[p] {
				s.detects[p] = append(s.detects[p], a.node)
			}
		}
	case 'd':
		q := s.detects[a.node][a.pendIdx]
		s.detects[a.node] = append(s.detects[a.node][:a.pendIdx], s.detects[a.node][a.pendIdx+1:]...)
		if len(s.detects[a.node]) == 0 {
			delete(s.detects, a.node)
		}
		if s.crashed[a.node] {
			return
		}
		e.applyEffects(s, a.node, s.nodes[a.node].OnCrash(q))
	case 'm':
		k := channelKey{from: a.peer, to: a.node}
		q := s.channels[k]
		m := q[0]
		if len(q) == 1 {
			delete(s.channels, k)
		} else {
			s.channels[k] = q[1:]
		}
		if s.crashed[a.node] {
			return
		}
		e.applyEffects(s, a.node, s.nodes[a.node].OnMessage(a.peer, m))
	}
}

func (e *explorer) applyEffects(s *state, id graph.NodeID, eff proto.Effects) {
	for _, qi := range eff.Monitor {
		q := e.g.ID(qi)
		set := s.subs[q]
		if set == nil {
			set = make(map[graph.NodeID]bool)
			s.subs[q] = set
		}
		if !set[id] {
			set[id] = true
			if s.crashed[q] {
				s.detects[id] = append(s.detects[id], q)
			}
		}
	}
	for _, send := range eff.Sends {
		m, ok := send.Payload.(*core.Message)
		if !ok {
			e.violatef("non-core payload %T from %s", send.Payload, id)
			continue
		}
		for _, ti := range send.To {
			to := e.g.ID(ti)
			if to == id {
				continue // sender's own copy is self-delivered by the automaton
			}
			// CD3 against the (precomputed) final faulty domains.
			shared := false
			for i := range e.inDomain[id] {
				if e.inDomain[to][i] {
					shared = true
					break
				}
			}
			if !shared {
				e.violatef("CD3: send %s→%s outside every faulty domain ∪ border", id, to)
			}
			k := channelKey{from: id, to: to}
			s.channels[k] = append(s.channels[k], m)
		}
	}
	if eff.Decision != nil {
		e.recordDecision(s, id, eff.Decision)
	}
	for _, v := range s.nodes[id].Violations() {
		e.violatef("INTERNAL %s: %s", id, v)
	}
}

// recordDecision checks the safety properties the moment a decision
// happens.
func (e *explorer) recordDecision(s *state, id graph.NodeID, d *proto.Decision) {
	e.out.DecidedViews[d.View.Key()] = true
	// CD1: at most one decision per node.
	for _, prev := range s.decisions {
		if prev.node == id {
			e.violatef("CD1: %s decided twice (%s then %s)", id, prev.view, d.View)
		}
	}
	// CD2: the view is a crashed region bordered by the decider.
	if !d.View.OnBorder(id) {
		e.violatef("CD2: %s decided %s it does not border", id, d.View)
	}
	if !e.g.IsConnectedSubset(graph.ToSet(d.View.Nodes())) {
		e.violatef("CD2: %s decided disconnected %s", id, d.View)
	}
	for _, m := range d.View.Nodes() {
		if !s.crashed[m] {
			e.violatef("CD2: %s decided %s containing live node %s", id, d.View, m)
		}
	}
	// CD5 + CD6 against all earlier decisions.
	for _, prev := range s.decisions {
		if prev.view.OnBorder(id) || d.View.OnBorder(prev.node) {
			if !prev.view.Equal(d.View) || prev.value != d.Value {
				e.violatef("CD5: %s=(%s,%s) vs %s=(%s,%s)",
					prev.node, prev.view, prev.value, id, d.View, d.Value)
			}
		}
		if !s.crashed[prev.node] && !s.crashed[id] &&
			prev.view.Intersects(d.View) && !prev.view.Equal(d.View) {
			e.violatef("CD6: overlapping distinct views %s (%s) and %s (%s)",
				prev.view, prev.node, d.View, id)
		}
	}
	s.decisions = append(s.decisions, decisionRec{node: id, view: d.View, value: d.Value})
}

// checkTerminal asserts the quiescence properties: CD4 border termination
// and CD7 progress (CD3 was checked at send time).
func (e *explorer) checkTerminal(s *state) {
	// A terminal state has no enabled actions, so every pending crash has
	// been injected: s.crashed equals the full crash set and the faulty
	// domains are exactly the ones precomputed in Explore.
	domains := e.domains

	decidedBy := make(map[graph.NodeID]bool)
	for _, d := range s.decisions {
		decidedBy[d.node] = true
	}
	for _, d := range s.decisions {
		for _, q := range d.view.Border() {
			if !s.crashed[q] && !decidedBy[q] {
				e.violatef("CD4: %s decided %s but correct border node %s did not decide",
					d.node, d.view, q)
			}
		}
	}

	if len(domains) == 0 {
		return
	}
	clusters := dsu.New(len(domains))
	for i := 0; i < len(domains); i++ {
		for j := i + 1; j < len(domains); j++ {
			for _, n := range domains[j].Border() {
				if domains[i].OnBorder(n) {
					clusters.Union(int32(i), int32(j))
					break
				}
			}
		}
	}
	decided := make(map[int32]bool)
	hasBorder := make(map[int32]bool)
	for i, dom := range domains {
		root := clusters.Find(int32(i))
		if dom.BorderLen() > 0 {
			hasBorder[root] = true
		}
		for _, p := range dom.Border() {
			if !s.crashed[p] && decidedBy[p] {
				decided[root] = true
			}
		}
	}
	for root := range hasBorder {
		if !decided[root] {
			e.violatef("CD7: cluster of %s reached no decision", domains[root])
		}
	}
}
