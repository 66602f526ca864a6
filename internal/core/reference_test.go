package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// refNode is Algorithm 1 as printed, with the one correction the package
// makes to it (|B| flooding rounds, see instance) and the two deviations
// Node documents (a 1-participant view decides at once; the round guard
// also needs proposed ≠ ⊥ and no decision yet). It is written to be
// obviously right rather than fast: string-keyed maps, explicit crashed
// and monitored sets from 〈init〉 on, one opinion vector per round with a
// value per slot, every connected component recomputed on every crash and
// the ranking ≺ of §3.1 spelt out. It shares only region.New and
// Message.String's rendering with the automaton it checks.
//
// lockstep runs it beside a Node on the same handler calls and compares
// the effects of every call.
type refNode struct {
	cfg Config

	decided       *proto.Decision
	proposed      bool // proposed ≠ ⊥
	proposedValue proto.Value

	locallyCrashed map[graph.NodeID]bool
	monitored      map[graph.NodeID]bool

	maxView, candidateView, vp region.Region
	round                      int

	received map[string]*refInstance
	rejected map[string]bool

	// selfQueue holds the node's own multicast copies, delivered before
	// any guard is evaluated again (the zero-latency self-channel).
	selfQueue []refMessage

	violations []string
}

// refInstance is opinions[V][·][·] and waiting[V][·] (lines 20–22),
// initialised for every round up front.
type refInstance struct {
	view     region.Region
	border   []graph.NodeID
	opinions []map[graph.NodeID]opinion // by round 1..last; ⊥ is absent
	waiting  []map[graph.NodeID]bool
	// values is each participant's accept value as first heard. A
	// participant proposes a view at most once, with one value (Lemma 2),
	// so a later accept with another value is a violation, and the first
	// value is the one kept.
	values map[graph.NodeID]proto.Value
}

// refMessage is [r, V, B, op]; B is V's border.
type refMessage struct {
	round int
	view  region.Region
	op    map[graph.NodeID]opinion
}

// refSend is one multicast: to is the view's border, sender included.
type refSend struct {
	to []graph.NodeID
	m  refMessage
}

// refEffects is what one handler call of the reference triggered.
type refEffects struct {
	monitor  []graph.NodeID
	sends    []refSend // in emission order
	proposed []string  // view keys
	rejected []string
	resets   int
	decision *proto.Decision
}

func newRefNode(cfg Config) *refNode {
	if cfg.Propose == nil {
		cfg.Propose = DefaultPropose
	}
	if cfg.Pick == nil {
		cfg.Pick = DefaultPick
	}
	return &refNode{
		cfg:            cfg,
		locallyCrashed: map[graph.NodeID]bool{},
		monitored:      map[graph.NodeID]bool{},
		maxView:        region.Empty,
		candidateView:  region.Empty,
		vp:             region.Empty,
		received:       map[string]*refInstance{},
		rejected:       map[string]bool{},
	}
}

// refLess is the ranking ≺ of §3.1: fewer nodes, then fewer border nodes,
// then the lexicographically smaller node sequence.
func refLess(r, s region.Region) bool {
	rn, sn := r.Nodes(), s.Nodes()
	if len(rn) != len(sn) {
		return len(rn) < len(sn)
	}
	rb, sb := r.Border(), s.Border()
	if len(rb) != len(sb) {
		return len(rb) < len(sb)
	}
	return r.Key() < s.Key() // the node IDs in order, joined by ','

}

func (n *refNode) violatef(format string, args ...any) {
	n.violations = append(n.violations, fmt.Sprintf(format, args...))
}

func (n *refNode) lastRound(border []graph.NodeID) int {
	if n.cfg.LiteralPaperRounds {
		return len(border) - 1
	}
	return len(border)
}

// start is 〈init〉 (lines 1–4): monitorCrash(border(p)).
func (n *refNode) start() refEffects {
	var eff refEffects
	if n.cfg.Graph.Has(n.cfg.ID) {
		n.subscribe(n.cfg.Graph.Neighbors(n.cfg.ID), &eff)
	}
	return eff
}

// subscribe is 〈monitorCrash | S \ locallyCrashed〉 for the nodes of S not
// monitored yet.
func (n *refNode) subscribe(s []graph.NodeID, eff *refEffects) {
	for _, q := range s {
		if q == n.cfg.ID || n.monitored[q] || n.locallyCrashed[q] {
			continue
		}
		n.monitored[q] = true
		eff.monitor = append(eff.monitor, q)
	}
}

// onCrash is 〈crash | q〉 (lines 5–11).
func (n *refNode) onCrash(q graph.NodeID) refEffects {
	var eff refEffects
	if !n.cfg.Graph.Has(q) {
		n.violatef("crash notification for unknown node %s", q)
		return eff
	}
	if n.locallyCrashed[q] {
		return eff
	}
	n.locallyCrashed[q] = true                  // line 6
	n.subscribe(n.cfg.Graph.Neighbors(q), &eff) // line 7
	max := region.Empty
	for _, c := range n.cfg.Graph.ConnectedComponents(n.locallyCrashed) { // line 8
		if r := region.New(n.cfg.Graph, c); refLess(max, r) {
			max = r
		}
	}
	if refLess(n.maxView, max) { // line 9
		n.maxView = max       // line 10
		n.candidateView = max // line 11
	}
	n.runGuards(&eff)
	return eff
}

// onMessage is 〈mDeliver | from, [r, V, B, op]〉 (lines 18–25). sent is
// the message as the sender's reference built it, nil if no reference
// did (a message a test wrote by hand), in which case m is read.
func (n *refNode) onMessage(from graph.NodeID, payload proto.Payload, sent *refMessage) refEffects {
	var eff refEffects
	m, ok := payload.(*Message)
	if !ok || m == nil {
		n.violatef("foreign payload %T from %s", payload, from)
		return eff
	}
	if sent == nil {
		border := m.View.Border()
		op := map[graph.NodeID]opinion{}
		for j, o := range opinionsOf(len(border), m.masks, m.values) {
			if o.kind != unknown {
				op[border[j]] = o
			}
		}
		sent = &refMessage{round: m.Round, view: m.View, op: op}
	}
	n.deliver(from, *sent)
	n.runGuards(&eff)
	return eff
}

func (n *refNode) deliver(from graph.NodeID, m refMessage) {
	key := m.view.Key()
	if n.rejected[key] { // line 18
		return
	}
	inst := n.received[key]
	if inst == nil { // lines 19–22
		border := m.view.Border()
		inst = &refInstance{view: m.view, border: border, values: map[graph.NodeID]proto.Value{}}
		last := n.lastRound(border)
		inst.opinions = make([]map[graph.NodeID]opinion, last+1)
		inst.waiting = make([]map[graph.NodeID]bool, last+1)
		for r := 1; r <= last; r++ {
			inst.opinions[r] = map[graph.NodeID]opinion{}
			inst.waiting[r] = map[graph.NodeID]bool{}
			for _, q := range border {
				inst.waiting[r][q] = true
			}
		}
		n.received[key] = inst
	}
	if m.round < 1 || m.round >= len(inst.opinions) {
		n.violatef("message round %d out of range for view %s", m.round, m.view)
		return
	}
	conflict := ""
	for _, q := range inst.border {
		o, ok := m.op[q]
		if !ok {
			continue
		}
		if _, known := inst.opinions[m.round][q]; !known { // lines 23–24: fill ⊥ slots only
			if o.kind == accepted {
				if v, ok := inst.values[q]; !ok {
					inst.values[q] = o.value
				} else if v != o.value {
					conflict = fmt.Sprintf("%s accepts with %q, already known to accept with %q", q, o.value, v)
					o.value = v
				}
			}
			inst.opinions[m.round][q] = o
		}
		if o.kind == rejected { // line 25, the rejectors
			delete(inst.waiting[m.round], q)
		}
	}
	delete(inst.waiting[m.round], from) // line 25, the sender
	if conflict != "" {
		n.violatef("view %s: %s", m.view, conflict)
	}
}

// multicast sends m to B; the sender's own copy is self-delivered.
func (n *refNode) multicast(m refMessage, eff *refEffects) {
	border := m.view.Border()
	self := slices.Contains(border, n.cfg.ID)
	if len(border) > 1 || !self {
		eff.sends = append(eff.sends, refSend{to: border, m: m})
	}
	if self {
		n.selfQueue = append(n.selfQueue, m)
	}
}

// String renders m as Message.String renders the message it stands for.
func (m refMessage) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for j, q := range m.view.Border() {
		if j > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(m.op[q].String())
	}
	sb.WriteByte(']')
	return fmt.Sprintf("[r=%d V=%s B=%v op=%s]", m.round, m.view, m.view.Border(), sb.String())
}

func (n *refNode) runGuards(eff *refEffects) {
	for {
		if len(n.selfQueue) > 0 {
			m := n.selfQueue[0]
			n.selfQueue = n.selfQueue[1:]
			n.deliver(n.cfg.ID, m)
			continue
		}
		if n.guardPropose(eff) || n.guardReject(eff) || n.guardRound(eff) {
			continue
		}
		return
	}
}

// guardPropose is lines 12–17.
func (n *refNode) guardPropose(eff *refEffects) bool {
	if n.proposed || n.candidateView.IsEmpty() {
		return false
	}
	n.vp = n.candidateView                // line 13
	n.candidateView = region.Empty        //
	n.proposedValue = n.cfg.Propose(n.vp) // line 14
	n.proposed = true
	n.round = 1 // line 16
	if n.rejected[n.vp.Key()] {
		n.violatef("proposing previously rejected view %s", n.vp)
	}
	border := n.vp.Border()
	if !slices.Contains(border, n.cfg.ID) {
		n.violatef("proposing view %s not bordered by self", n.vp)
	}
	eff.proposed = append(eff.proposed, n.vp.Key())
	if len(border) == 1 { // the 1-participant instance decides at once
		n.decided = &proto.Decision{View: n.vp, Value: n.cfg.Pick([]proto.Value{n.proposedValue})}
		eff.decision = n.decided
		return true
	}
	op := map[graph.NodeID]opinion{}
	if slices.Contains(border, n.cfg.ID) {
		op[n.cfg.ID] = accept(n.proposedValue) // line 15
	}
	n.multicast(refMessage{round: 1, view: n.vp, op: op}, eff) // line 17
	return true
}

// guardReject is lines 26–31, lowest-ranked view first.
func (n *refNode) guardReject(eff *refEffects) bool {
	if n.cfg.DisableArbitration || n.vp.IsEmpty() {
		return false
	}
	var lowest *refInstance
	for _, inst := range n.received { // line 26
		if refLess(inst.view, n.vp) && (lowest == nil || refLess(inst.view, lowest.view)) {
			lowest = inst
		}
	}
	if lowest == nil {
		return false
	}
	l := lowest.view
	delete(n.received, l.Key()) // line 30
	n.rejected[l.Key()] = true
	op := map[graph.NodeID]opinion{}
	if slices.Contains(l.Border(), n.cfg.ID) {
		op[n.cfg.ID] = reject // line 29
	}
	n.multicast(refMessage{round: 1, view: l, op: op}, eff) // line 31
	eff.rejected = append(eff.rejected, l.Key())
	return true
}

// guardRound is lines 32–40.
func (n *refNode) guardRound(eff *refEffects) bool {
	if !n.proposed || n.decided != nil {
		return false
	}
	inst := n.received[n.vp.Key()] // line 32: Vp ∈ received
	if inst == nil || n.round < 1 || n.round >= len(inst.opinions) {
		return false
	}
	for q := range inst.waiting[n.round] { // waiting[Vp][r] \ locallyCrashed = ∅
		if !n.locallyCrashed[q] {
			return false
		}
	}
	if n.round == len(inst.opinions)-1 { // line 33
		var values []proto.Value
		for _, q := range inst.border {
			if o := inst.opinions[n.round][q]; o.kind == accepted {
				values = append(values, o.value)
			}
		}
		if len(values) == len(inst.border) { // line 34
			n.decided = &proto.Decision{View: n.vp, Value: n.cfg.Pick(values)} // line 35
			eff.decision = n.decided                                           // line 36
		} else {
			n.proposed = false // line 37
			eff.resets++
		}
		return true
	}
	n.round++ // line 39
	op := map[graph.NodeID]opinion{}
	for q, o := range inst.opinions[n.round-1] {
		op[q] = o
	}
	n.multicast(refMessage{round: n.round, view: n.vp, op: op}, eff) // line 40
	return true
}

// String renders the effects for comparison.
func (e refEffects) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "monitor=%v", e.monitor)
	for _, s := range e.sends {
		fmt.Fprintf(&sb, " send=%v>%s", s.to, s.m)
	}
	fmt.Fprintf(&sb, " proposed=%v rejected=%v resets=%d", e.proposed, e.rejected, e.resets)
	if e.decision != nil {
		fmt.Fprintf(&sb, " decide=(%s,%s)", e.decision.View.Key(), e.decision.Value)
	}
	return sb.String()
}

// nodeEffects renders a Node's effects as refEffects.String renders the
// reference's.
func nodeEffects(g *graph.Graph, eff proto.Effects) string {
	var sb strings.Builder
	monitor := make([]graph.NodeID, len(eff.Monitor))
	for k, qi := range eff.Monitor {
		monitor[k] = g.ID(qi)
	}
	fmt.Fprintf(&sb, "monitor=%v", monitor)
	for _, s := range eff.Sends {
		to := make([]graph.NodeID, len(s.To))
		for k, i := range s.To {
			to[k] = g.ID(i)
		}
		fmt.Fprintf(&sb, " send=%v>%s", to, s.Payload.(*Message))
	}
	var proposed, rejected []string
	for _, v := range eff.Proposed {
		proposed = append(proposed, v.Key())
	}
	for _, v := range eff.Rejected {
		rejected = append(rejected, v.Key())
	}
	fmt.Fprintf(&sb, " proposed=%v rejected=%v resets=%d", proposed, rejected, eff.Resets)
	if eff.Decision != nil {
		fmt.Fprintf(&sb, " decide=(%s,%s)", eff.Decision.View.Key(), eff.Decision.Value)
	}
	return sb.String()
}

// lockstepRun is what the lockstep nodes of one run share: the mismatches
// found, and the reference's form of every message a Node sent, so that
// each reference receives what its sender's reference built — not the
// Node's message, which could have changed since it was sent.
type lockstepRun struct {
	diffs []string
	sent  map[*Message]refMessage
}

// finish records every message a Node sent that no longer renders as its
// sender's reference built it: a message is shared by its recipients and
// must not change once sent, whatever its sender does later.
func (run *lockstepRun) finish() {
	for m, rm := range run.sent {
		if got, want := m.String(), rm.String(); got != want {
			run.diffs = append(run.diffs, fmt.Sprintf("a sent message changed: now %s, sent as %s", got, want))
		}
	}
}

// factory wraps every node nodes builds in a lockstep node running a
// reference built from cfg with the node's ID.
func (run *lockstepRun) factory(cfg Config, nodes proto.Factory) proto.Factory {
	return func(id graph.NodeID) proto.Automaton {
		c := cfg
		c.ID = id
		return run.wrap(nodes(id).(*Node), c)
	}
}

func (run *lockstepRun) wrap(n *Node, cfg Config) *lockstep {
	if run.sent == nil {
		run.sent = make(map[*Message]refMessage)
	}
	return &lockstep{node: n, ref: newRefNode(cfg), run: run}
}

// lockstep is a proto.Automaton that runs a Node and a refNode on every
// handler call and records each call whose effects, decisions or
// violation counts differ. It returns the Node's effects, so a runtime
// driving lockstep nodes runs exactly as it would drive the Nodes.
type lockstep struct {
	node *Node
	ref  *refNode
	run  *lockstepRun
}

func (l *lockstep) ID() graph.NodeID         { return l.node.ID() }
func (l *lockstep) Decided() *proto.Decision { return l.node.Decided() }

func (l *lockstep) Start() proto.Effects {
	eff := l.node.Start()
	l.compare("start", eff, l.ref.start())
	return eff
}

func (l *lockstep) OnCrash(q graph.NodeID) proto.Effects {
	eff := l.node.OnCrash(q)
	l.compare("crash "+string(q), eff, l.ref.onCrash(q))
	return eff
}

func (l *lockstep) OnMessage(from graph.NodeID, payload proto.Payload) proto.Effects {
	var sent *refMessage
	if m, ok := payload.(*Message); ok {
		if rm, ok := l.run.sent[m]; ok {
			sent = &rm
		}
	}
	what := fmt.Sprintf("deliver %s from %s", payload, from)
	eff := l.node.OnMessage(from, payload)
	l.compare(what, eff, l.ref.onMessage(from, payload, sent))
	return eff
}

func (l *lockstep) compare(what string, eff proto.Effects, want refEffects) {
	id := l.node.ID()
	if got, w := nodeEffects(l.ref.cfg.Graph, eff), want.String(); got != w {
		l.run.diffs = append(l.run.diffs, fmt.Sprintf("%s, %s:\n  node:      %s\n  reference: %s", id, what, got, w))
	} else {
		for k, s := range eff.Sends {
			l.run.sent[s.Payload.(*Message)] = want.sends[k].m
		}
	}
	d, rd := l.node.Decided(), l.ref.decided
	if (d == nil) != (rd == nil) || d != nil && (d.View.Key() != rd.View.Key() || d.Value != rd.Value) {
		l.run.diffs = append(l.run.diffs, fmt.Sprintf("%s, %s: decided %v, reference %v", id, what, d, rd))
	}
	if v, rv := l.node.Violations(), l.ref.violations; len(v) != len(rv) {
		l.run.diffs = append(l.run.diffs, fmt.Sprintf("%s, %s: violations %q, reference %q", id, what, v, rv))
	}
}

// clone deep-copies both automata; the copy reports to the same run.
func (l *lockstep) clone() *lockstep {
	ref := *l.ref
	ref.locallyCrashed = maps.Clone(l.ref.locallyCrashed)
	ref.monitored = maps.Clone(l.ref.monitored)
	ref.rejected = maps.Clone(l.ref.rejected)
	ref.received = make(map[string]*refInstance, len(l.ref.received))
	for k, inst := range l.ref.received {
		c := *inst
		c.values = maps.Clone(inst.values)
		c.opinions = make([]map[graph.NodeID]opinion, len(inst.opinions))
		c.waiting = make([]map[graph.NodeID]bool, len(inst.waiting))
		for r := 1; r < len(inst.opinions); r++ {
			c.opinions[r] = maps.Clone(inst.opinions[r])
			c.waiting[r] = maps.Clone(inst.waiting[r])
		}
		ref.received[k] = &c
	}
	ref.selfQueue = slices.Clone(l.ref.selfQueue)
	ref.violations = slices.Clone(l.ref.violations)
	if l.ref.decided != nil {
		d := *l.ref.decided
		ref.decided = &d
	}
	return &lockstep{node: l.node.Clone(), ref: &ref, run: l.run}
}

var _ proto.Automaton = (*lockstep)(nil)
