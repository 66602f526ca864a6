package check

import (
	"fmt"

	"cliffedge/internal/dsu"
	"cliffedge/internal/graph"
	"cliffedge/internal/region"
	"cliffedge/internal/trace"
)

// The string-keyed checker the dense Online replaced, kept verbatim as the
// oracle FuzzOnlineMatchesReference compares it against (names prefixed so
// they do not clash). Two changes since: CD7's cluster loop iterates
// clusters in domain order like Online's, not in map order, since both must
// list their violations identically for the comparison to mean anything;
// and a view key naming a node outside the topology is handled as Online
// handles it (see decodedView), changed in lockstep.

// NewReferenceChecker returns the reference checker over topology g, for
// the external test package.
func NewReferenceChecker(g *graph.Graph) *referenceOnline { return newReferenceOnline(g) }

// Report is Online.Report on the reference state.
func (o *referenceOnline) Report() Report { return o.report(false) }

// SafetyReport is Online.SafetyReport on the reference state.
func (o *referenceOnline) SafetyReport() Report { return o.report(true) }

// refSendPair is a distinct (sender, recipient) channel observed in the trace.
type refSendPair struct{ from, to graph.NodeID }

// referenceOnline is an incremental CD1–CD7 checker: feed it every trace event as
// it happens via Observe, then call Report once the run is quiescent. Its
// memory is bounded by the topology and the number of decisions and
// proposals — never by the length of the trace — so it pairs with
// discarded-trace (constant-memory) runs of arbitrary size.
//
// Observe is not safe for concurrent use; the runtimes deliver observer
// events serially, in sequence order, which is exactly what the
// order-dependent checks (lemma 2, no post-crash activity) require.
type referenceOnline struct {
	g *graph.Graph

	crashed   map[graph.NodeID]bool
	crashTime map[graph.NodeID]int64
	decisions []decision

	// CD3 evidence: distinct send channels in first-use order, with use
	// counts (bounded by edges of the closure actually exercised).
	sendOrder []refSendPair
	sendCount map[refSendPair]int

	// views memoises the decoded Region per view key. Every border node of
	// a region proposes and decides the same few views, and decoding a key
	// re-splits, re-sorts and re-borders it, so each is decoded once. It
	// holds one entry per distinct view proposed or decided: no more than
	// the proposals and decisions the checker keeps anyway.
	views map[string]decodedView

	// Streamed sanity state (order-dependent, evaluated as events arrive).
	lastProposed map[graph.NodeID]region.Region
	rejectedBy   map[graph.NodeID]map[string]bool
	sends        int
	delivered    int
	streamViol   []Violation
}

// newReferenceOnline returns an incremental checker over topology g.
func newReferenceOnline(g *graph.Graph) *referenceOnline {
	return &referenceOnline{
		g:            g,
		crashed:      make(map[graph.NodeID]bool),
		crashTime:    make(map[graph.NodeID]int64),
		sendCount:    make(map[refSendPair]int),
		views:        make(map[string]decodedView),
		lastProposed: make(map[graph.NodeID]region.Region),
		rejectedBy:   make(map[graph.NodeID]map[string]bool),
	}
}

// Observe folds one event into the checker's state. Call in trace order.
func (o *referenceOnline) Observe(e trace.Event) {
	switch e.Kind {
	case trace.KindCrash:
		o.crashed[e.Node] = true
		o.crashTime[e.Node] = e.Time
	case trace.KindDecide:
		if o.crashed[e.Node] {
			o.streamViol = append(o.streamViol, Violation{"SANITY",
				fmt.Sprintf("crashed node %s decided at t=%d", e.Node, e.Time)})
		}
		o.decisions = append(o.decisions,
			decision{node: e.Node, view: o.view(e.View), value: e.Value, time: e.Time})
	case trace.KindSend:
		o.sends++
		if o.crashed[e.Node] {
			o.streamViol = append(o.streamViol, Violation{"SANITY",
				fmt.Sprintf("crashed node %s sent a message at t=%d", e.Node, e.Time)})
		}
		p := refSendPair{e.Node, e.Peer}
		if o.sendCount[p] == 0 {
			o.sendOrder = append(o.sendOrder, p)
		}
		o.sendCount[p]++
	case trace.KindDeliver, trace.KindDrop:
		o.delivered++
	case trace.KindPropose:
		v := o.view(e.View)
		if v.err != nil {
			o.streamViol = append(o.streamViol, Violation{"SANITY",
				fmt.Sprintf("node %s proposed view %s: %v", e.Node, v, v.err)})
			break
		}
		if prev, ok := o.lastProposed[e.Node]; ok && !region.Less(&prev, &v.Region) {
			o.streamViol = append(o.streamViol, Violation{"LEMMA2",
				fmt.Sprintf("node %s proposed %s after %s (not strictly increasing)", e.Node, v, prev)})
		}
		o.lastProposed[e.Node] = v.Region
		if o.rejectedBy[e.Node][e.View] {
			o.streamViol = append(o.streamViol, Violation{"LEMMA2",
				fmt.Sprintf("node %s proposed previously rejected view {%s}", e.Node, e.View)})
		}
	case trace.KindReject:
		set := o.rejectedBy[e.Node]
		if set == nil {
			set = make(map[string]bool)
			o.rejectedBy[e.Node] = set
		}
		if set[e.View] {
			o.streamViol = append(o.streamViol, Violation{"LEMMA2",
				fmt.Sprintf("node %s rejected view {%s} twice", e.Node, e.View)})
		}
		set[e.View] = true
	}
}

// view returns the view the key names, decoding it on first sight.
func (o *referenceOnline) view(key string) decodedView {
	v, ok := o.views[key]
	if !ok {
		v = decodeView(o.g, key)
		o.views[key] = v
	}
	return v
}

func (o *referenceOnline) report(safetyOnly bool) Report {
	var rep Report
	g, crashed, crashTime := o.g, o.crashed, o.crashTime

	// CD1 (integrity): at most one decide per node.
	decisionsByNode := make(map[graph.NodeID][]decision)
	decisions := o.decisions
	for _, d := range decisions {
		if prev := decisionsByNode[d.node]; len(prev) > 0 {
			rep.violatef("CD1", "node %s decided twice: %s then %s", d.node, prev[0].view, d.view)
		}
		decisionsByNode[d.node] = append(decisionsByNode[d.node], d)
	}
	rep.Decisions = len(decisions)

	// CD2 (view accuracy): decided views are crashed regions (connected,
	// fully crashed before the decision) bordered by the decider.
	for _, d := range decisions {
		if d.view.err != nil {
			rep.violatef("CD2", "node %s decided view %s: %v", d.node, d.view, d.view.err)
			continue
		}
		if d.view.IsEmpty() {
			rep.violatef("CD2", "node %s decided the empty view", d.node)
			continue
		}
		if !g.IsConnectedSubset(graph.ToSet(d.view.Nodes())) {
			rep.violatef("CD2", "node %s decided a disconnected view %s", d.node, d.view)
		}
		for _, m := range d.view.Nodes() {
			if !crashed[m] {
				rep.violatef("CD2", "node %s decided view %s containing correct node %s",
					d.node, d.view, m)
			} else if crashTime[m] > d.time {
				rep.violatef("CD2", "node %s decided view %s at t=%d before member %s crashed at t=%d",
					d.node, d.view, d.time, m, crashTime[m])
			}
		}
		if !d.view.OnBorder(d.node) {
			rep.violatef("CD2", "node %s decided view %s it does not border", d.node, d.view)
		}
	}

	// Faulty domains at quiescence: maximal crashed regions (their borders
	// are correct by maximality once all scheduled crashes have happened).
	// Computed over dense indices via the shared union-find; crash events
	// for nodes outside the topology (malformed traces) are ignored here —
	// CD2 already flags any decision that involves them.
	crashedSet := graph.NewBitset(g.Len())
	for n := range crashed {
		if i := g.Index(n); i >= 0 {
			crashedSet.Set(i)
		}
	}
	domains := region.Domains(g, crashedSet)
	rep.FaultyDomains = len(domains)

	// CD3 (locality): each message ran between two nodes of S ∪ border(S)
	// for a single faulty domain S.
	inDomain := make(map[graph.NodeID][]int) // node → indices of domains it is in or borders
	for i, dom := range domains {
		for _, n := range dom.Nodes() {
			inDomain[n] = append(inDomain[n], i)
		}
		for _, n := range dom.Border() {
			inDomain[n] = append(inDomain[n], i)
		}
	}
	shareDomain := func(p, q graph.NodeID) bool {
		for _, i := range inDomain[p] {
			for _, j := range inDomain[q] {
				if i == j {
					return true
				}
			}
		}
		return false
	}
	cd3Total, cd3Reported := 0, 0
	for _, p := range o.sendOrder {
		if shareDomain(p.from, p.to) {
			continue
		}
		n := o.sendCount[p]
		cd3Total += n
		for ; n > 0 && cd3Reported < 10; n-- { // cap noise; one violation proves the breach
			rep.violatef("CD3", "message %s→%s outside any faulty domain ∪ border", p.from, p.to)
			cd3Reported++
		}
	}
	if cd3Total > 10 {
		rep.violatef("CD3", "… and %d more locality breaches", cd3Total-10)
	}

	// CD4 (border termination): if p decided (V, ·), every correct node in
	// border(V) decided by quiescence. A liveness property: vacuous under
	// raw message loss, where a border node may simply never learn enough.
	if !safetyOnly {
		for _, d := range decisions {
			for _, q := range d.view.Border() {
				if crashed[q] {
					continue
				}
				if len(decisionsByNode[q]) == 0 {
					rep.violatef("CD4", "%s decided %s but correct border node %s never decided",
						d.node, d.view, q)
				}
			}
		}
	}

	// CD5 (uniform border agreement): deciders on the border of a decided
	// view decided identically. Uniform: crashed deciders count too.
	for _, d := range decisions {
		for _, q := range d.view.Border() {
			for _, dq := range decisionsByNode[q] {
				if dq.view.err == nil && (!dq.view.Equal(d.view.Region) || dq.value != d.value) {
					rep.violatef("CD5", "%s decided (%s,%q) but border node %s decided (%s,%q)",
						d.node, d.view, d.value, q, dq.view, dq.value)
				}
			}
		}
	}

	// CD6 (view convergence): overlapping views decided by correct nodes
	// are equal.
	for i := 0; i < len(decisions); i++ {
		if crashed[decisions[i].node] {
			continue
		}
		for j := i + 1; j < len(decisions); j++ {
			if crashed[decisions[j].node] {
				continue
			}
			vi, vj := decisions[i].view, decisions[j].view
			if vi.Intersects(vj.Region) && !vi.Equal(vj.Region) {
				rep.violatef("CD6", "correct nodes %s and %s decided overlapping distinct views %s and %s",
					decisions[i].node, decisions[j].node, vi, vj)
			}
		}
	}

	// CD7 (progress): every faulty cluster has ≥1 correct decider on the
	// border of one of its domains. Clusters are the transitive closure of
	// border adjacency.
	clusters := dsu.New(len(domains))
	for i := 0; i < len(domains); i++ {
		for j := i + 1; j < len(domains); j++ {
			if refBordersIntersect(domains[i], domains[j]) {
				clusters.Union(int32(i), int32(j))
			}
		}
	}
	clusterDecided := make(map[int32]bool)
	clusterHasBorder := make(map[int32]bool)
	for i, dom := range domains {
		root := clusters.Find(int32(i))
		if dom.BorderLen() > 0 {
			clusterHasBorder[root] = true
		}
		for _, p := range dom.Border() {
			if crashed[p] {
				continue
			}
			if len(decisionsByNode[p]) > 0 {
				clusterDecided[root] = true
			}
		}
	}
	rep.Clusters = len(clusterHasBorder)
	listed := make(map[int32]bool)
	for i := range domains {
		root := clusters.Find(int32(i))
		if !clusterHasBorder[root] || listed[root] {
			continue
		}
		listed[root] = true
		if clusterDecided[root] {
			rep.DecidedClusters++
		} else if !safetyOnly {
			// CD7 is the progress property: a stall, not a safety breach,
			// when the network genuinely loses messages.
			rep.violatef("CD7", "faulty cluster %s has no correct decider on any border",
				domains[root])
		}
	}

	// Sanity and lemma-2 breaches were detected in stream order as the
	// events arrived; message conservation is judged now, at quiescence —
	// unless duplication is in play (safety-only mode), where the ledger
	// legitimately unbalances.
	rep.Violations = append(rep.Violations, o.streamViol...)
	if !safetyOnly && o.sends != o.delivered {
		rep.violatef("SANITY", "message conservation broken: %d sends vs %d deliveries+drops",
			o.sends, o.delivered)
	}
	return rep
}

func refBordersIntersect(a, b region.Region) bool {
	bb := graph.ToSet(b.Border())
	for _, n := range a.Border() {
		if bb[n] {
			return true
		}
	}
	return false
}
