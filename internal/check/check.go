// Package check verifies the seven properties CD1–CD7 of convergent
// detection of crashed regions (paper §2.3) over the trace of a finished
// (quiescent) run, together with implementation sanity conditions (lemma 2
// monotonicity, message conservation, no post-crash sends).
//
// The checkers are intentionally independent of the protocol
// implementation: they consume only the event trace, the topology, and the
// ground-truth crash set, so they hold the core, the ablations and the
// extension to the same specification.
package check

import (
	"fmt"
	"strings"

	"cliffedge/internal/dsu"
	"cliffedge/internal/graph"
	"cliffedge/internal/region"
	"cliffedge/internal/trace"
)

// Violation is one property breach.
type Violation struct {
	Property string // "CD1".."CD7", "LEMMA2", "SANITY"
	Detail   string
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// Report is the outcome of checking one run.
type Report struct {
	Violations []Violation
	// Decisions is the number of decide events observed.
	Decisions int
	// FaultyDomains is the number of maximal crashed regions at quiescence.
	FaultyDomains int
	// Clusters is the number of faulty clusters (transitive adjacency
	// classes of faulty domains).
	Clusters int
	// DecidedClusters counts clusters with at least one correct decider.
	DecidedClusters int
}

// Ok reports whether no property was violated.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

// String summarises the report; violations are listed one per line.
func (r Report) String() string {
	if r.Ok() {
		return fmt.Sprintf("ok: %d decisions, %d domains, %d/%d clusters decided",
			r.Decisions, r.FaultyDomains, r.DecidedClusters, r.Clusters)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d violations:\n", len(r.Violations))
	for _, v := range r.Violations {
		sb.WriteString("  " + v.String() + "\n")
	}
	return sb.String()
}

func (r *Report) violatef(prop, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{prop, fmt.Sprintf(format, args...)})
}

type decision struct {
	node  graph.NodeID
	idx   int32 // node's checker index
	view  decodedView
	value string
	time  int64
}

// decodedView is a view key as the checkers decode it: the region the key
// names, or, for a key naming a node outside the topology, ∅ and
// FromKey's error, which names the node. Such a view is reported where it
// is proposed (SANITY) or decided (CD2) and takes part in no region check.
type decodedView struct {
	region.Region
	key string
	err error
}

func decodeView(g *graph.Graph, key string) decodedView {
	r, err := region.FromKey(g, key)
	return decodedView{r, key, err}
}

// String renders the view as the trace names it: {key}.
func (v decodedView) String() string { return "{" + v.key + "}" }

// channel is a distinct (sender, recipient) pair observed in the trace,
// by checker index, with the number of sends on it.
type channel struct {
	from, to int32
	count    int
}

// Online is an incremental CD1–CD7 checker: feed it every trace event as
// it happens via Observe, then call Report once the run is quiescent. Its
// memory is bounded by the topology and the number of decisions and
// proposals — never by the length of the trace — so it pairs with
// discarded-trace (constant-memory) runs of arbitrary size.
//
// Per-node state is kept by checker index: a node's dense index in the
// topology, or, for a node ID the topology does not have (a malformed
// trace), an index past g.Len() handed out in first-seen order. A send
// costs at most one index lookup, for the recipient (a multicast repeats
// its sender), and one integer-keyed channel lookup; a send of a repeated
// multicast usually costs neither (see channel).
//
// Observe is not safe for concurrent use; the runtimes deliver observer
// events serially, in sequence order, which is exactly what the
// order-dependent checks (lemma 2, no post-crash activity) require.
type Online struct {
	g *graph.Graph

	// others gives node IDs outside the topology their indices, g.Len()
	// upwards; otherIDs maps them back.
	others   map[graph.NodeID]int32
	otherIDs []graph.NodeID

	crashed   graph.Bitset // by index
	crashTime []int64      // by index; the last crash event's time
	decisions []decision

	// CD3 evidence: distinct send channels in first-use order, with use
	// counts (bounded by edges of the closure actually exercised); chanSlot
	// maps from<<32|to to a channel's position in chans, and lastChan is
	// the position the latest send used.
	chans    []channel
	chanSlot map[uint64]int32
	lastChan int32

	// views memoises the decoded Region per view key, as a position in
	// viewList. Every border node of a region proposes and decides the
	// same few views, and decoding a key re-splits, re-sorts and re-borders
	// it, so each is decoded once. It holds one entry per distinct view
	// proposed or decided: no more than the proposals and decisions the
	// checker keeps anyway.
	views    map[string]int32
	viewList []decodedView

	// Streamed sanity state (order-dependent, evaluated as events arrive).
	lastProposed []int32 // by index: 1 + position in viewList, 0 = none
	rejectedBy   []map[string]bool
	sends        int
	delivered    int
	streamViol   []Violation
}

// NewOnline returns an incremental checker over topology g: Reset on a
// zero Online.
func NewOnline(g *graph.Graph) *Online {
	o := new(Online)
	o.Reset(g)
	return o
}

// Reset empties the checker for a run over topology g, keeping the
// memory of its earlier runs: the per-node arrays and the channel, view
// and decision lists. The two maps start afresh: a cleared map keeps the
// table of the largest run it served, and probing a large, nearly empty
// table costs more than a small map's allocation saves. A reset checker
// reports exactly what a new one fed the same events would. A Report
// taken before the Reset stays valid.
func (o *Online) Reset(g *graph.Graph) {
	n := g.Len()
	clear(o.others)
	clear(o.viewList)
	clear(o.decisions)
	clear(o.otherIDs)
	*o = Online{
		g:            g,
		others:       o.others,
		otherIDs:     o.otherIDs[:0],
		crashed:      o.crashed.Reset(n),
		crashTime:    resize(o.crashTime, n),
		decisions:    o.decisions[:0],
		chans:        o.chans[:0],
		chanSlot:     make(map[uint64]int32),
		views:        make(map[string]int32),
		viewList:     o.viewList[:0],
		lastProposed: resize(o.lastProposed, n),
		rejectedBy:   resize(o.rejectedBy, n),
	}
}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// index returns id's checker index, handing a node ID outside the
// topology the next free index past g.Len() on first sight.
func (o *Online) index(id graph.NodeID) int32 {
	if i := o.g.Index(id); i >= 0 {
		return i
	}
	if i, ok := o.others[id]; ok {
		return i
	}
	i := int32(o.g.Len() + len(o.otherIDs))
	if o.others == nil {
		o.others = make(map[graph.NodeID]int32)
	}
	o.others[id] = i
	o.otherIDs = append(o.otherIDs, id)
	if int(i>>6) >= len(o.crashed) {
		o.crashed = append(o.crashed, 0)
	}
	o.crashTime = append(o.crashTime, 0)
	o.lastProposed = append(o.lastProposed, 0)
	o.rejectedBy = append(o.rejectedBy, nil)
	return i
}

// id is the node ID of checker index i.
func (o *Online) id(i int32) graph.NodeID {
	if n := int32(o.g.Len()); i >= n {
		return o.otherIDs[i-n]
	}
	return o.g.ID(i)
}

// Observe folds one event into the checker's state. Call in trace order.
func (o *Online) Observe(e trace.Event) {
	switch e.Kind {
	case trace.KindCrash:
		i := o.index(e.Node)
		o.crashed.Set(i)
		o.crashTime[i] = e.Time
	case trace.KindDecide:
		i := o.index(e.Node)
		if o.crashed.Has(i) {
			o.streamViol = append(o.streamViol, Violation{"SANITY",
				fmt.Sprintf("crashed node %s decided at t=%d", e.Node, e.Time)})
		}
		o.decisions = append(o.decisions, decision{node: e.Node, idx: i,
			view: o.viewList[o.view(e.View)], value: e.Value, time: e.Time})
	case trace.KindSend:
		o.sends++
		// A multicast repeats its sender: the latest channel's is reused.
		var from int32
		if len(o.chans) > 0 && o.id(o.chans[o.lastChan].from) == e.Node {
			from = o.chans[o.lastChan].from
		} else {
			from = o.index(e.Node)
		}
		if o.crashed.Has(from) {
			o.streamViol = append(o.streamViol, Violation{"SANITY",
				fmt.Sprintf("crashed node %s sent a message at t=%d", e.Node, e.Time)})
		}
		o.chans[o.channel(from, e.Peer)].count++
	case trace.KindDeliver, trace.KindDrop:
		o.delivered++
	case trace.KindPropose:
		i := o.index(e.Node)
		slot := o.view(e.View)
		v := &o.viewList[slot]
		if v.err != nil {
			o.streamViol = append(o.streamViol, Violation{"SANITY",
				fmt.Sprintf("node %s proposed view %s: %v", e.Node, v, v.err)})
			break
		}
		if prev := o.lastProposed[i]; prev > 0 && !region.Less(&o.viewList[prev-1].Region, &v.Region) {
			o.streamViol = append(o.streamViol, Violation{"LEMMA2",
				fmt.Sprintf("node %s proposed %s after %s (not strictly increasing)", e.Node, v, o.viewList[prev-1])})
		}
		o.lastProposed[i] = slot + 1
		if o.rejectedBy[i][e.View] {
			o.streamViol = append(o.streamViol, Violation{"LEMMA2",
				fmt.Sprintf("node %s proposed previously rejected view {%s}", e.Node, e.View)})
		}
	case trace.KindReject:
		i := o.index(e.Node)
		set := o.rejectedBy[i]
		if set == nil {
			set = make(map[string]bool)
			o.rejectedBy[i] = set
		}
		if set[e.View] {
			o.streamViol = append(o.streamViol, Violation{"LEMMA2",
				fmt.Sprintf("node %s rejected view {%s} twice", e.Node, e.View)})
		}
		set[e.View] = true
	}
}

// channel returns the position in chans of the channel from → peer,
// opening it on first use. A multicast goes to the same recipients in the
// same order each round, so the channel after the last one used is tried
// first; when it is the one, the send costs neither a recipient lookup nor
// a map probe.
func (o *Online) channel(from int32, peer graph.NodeID) int32 {
	if next := o.lastChan + 1; int(next) < len(o.chans) &&
		o.chans[next].from == from && o.id(o.chans[next].to) == peer {
		o.lastChan = next
		return next
	}
	to := o.index(peer)
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	slot, ok := o.chanSlot[key]
	if !ok {
		slot = int32(len(o.chans))
		o.chanSlot[key] = slot
		o.chans = append(o.chans, channel{from: from, to: to})
	}
	o.lastChan = slot
	return slot
}

// view returns the viewList position of the Region the key names,
// decoding it on first sight.
func (o *Online) view(key string) int32 {
	slot, ok := o.views[key]
	if !ok {
		slot = int32(len(o.viewList))
		o.viewList = append(o.viewList, decodeView(o.g, key))
		o.views[key] = slot
	}
	return slot
}

// Run checks a quiescent run. events is the full trace; the ground-truth
// crash set is reconstructed from the trace's crash events. Progress (CD4,
// CD7) is judged at quiescence — the trace must come from a run that was
// executed until no event remained.
func Run(g *graph.Graph, events []trace.Event) Report {
	o := NewOnline(g)
	for _, e := range events {
		o.Observe(e)
	}
	return o.Report()
}

// Report evaluates every property against the accumulated state and
// returns the verdict. Call it once, after the run reached quiescence.
func (o *Online) Report() Report { return o.report(false) }

// SafetyReport evaluates only the properties that remain sound when the
// reliable-channel assumption is broken (netem's raw-loss mode): CD1–CD3,
// CD5, CD6 and the streamed lemma-2/sanity checks. The liveness-flavoured
// checks are omitted — under genuine message loss a run may legitimately
// stall (CD4, CD7) and duplicated deliveries legitimately unbalance the
// send/deliver ledger (message conservation) — so their violations would
// be false positives, not protocol bugs. Cluster/decision statistics are
// still populated; campaigns quantify the stalls those checks would have
// flagged as stall and decision rates instead.
func (o *Online) SafetyReport() Report { return o.report(true) }

func (o *Online) report(safetyOnly bool) Report {
	var rep Report
	g, crashed, crashTime := o.g, o.crashed, o.crashTime

	// Each node's decisions, in trace order, as a chain: first[i] is 1 +
	// the position of node i's first decision (0: it never decided), and
	// next[k] is 1 + the position of the same node's decision after k.
	decisions := o.decisions
	first := make([]int32, len(crashTime))
	next := make([]int32, len(decisions))
	for k := len(decisions) - 1; k >= 0; k-- {
		i := decisions[k].idx
		next[k], first[i] = first[i], int32(k+1)
	}

	// CD1 (integrity): at most one decide per node.
	for k, d := range decisions {
		if f := first[d.idx]; f != int32(k+1) {
			rep.violatef("CD1", "node %s decided twice: %s then %s", d.node, decisions[f-1].view, d.view)
		}
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
		for _, m := range d.view.Indices() {
			if !crashed.Has(m) {
				rep.violatef("CD2", "node %s decided view %s containing correct node %s",
					d.node, d.view, o.id(m))
			} else if crashTime[m] > d.time {
				rep.violatef("CD2", "node %s decided view %s at t=%d before member %s crashed at t=%d",
					d.node, d.view, d.time, o.id(m), crashTime[m])
			}
		}
		if !d.view.OnBorderIndex(d.idx) {
			rep.violatef("CD2", "node %s decided view %s it does not border", d.node, d.view)
		}
	}

	// Faulty domains at quiescence: maximal crashed regions (their borders
	// are correct by maximality once all scheduled crashes have happened).
	// Computed over dense indices via the shared union-find; crash events
	// for nodes outside the topology (malformed traces) are ignored here —
	// CD2 already flags any decision that involves them.
	n := g.Len()
	crashedSet := graph.NewBitset(n)
	copy(crashedSet, crashed)
	if r := n & 63; r != 0 {
		crashedSet[len(crashedSet)-1] &= 1<<r - 1
	}
	domains := region.Domains(g, crashedSet)
	rep.FaultyDomains = len(domains)

	// CD3 (locality): each message ran between two nodes of S ∪ border(S)
	// for a single faulty domain S.
	inDomain := make([][]int32, len(crashTime)) // index → domains it is in or borders
	for i, dom := range domains {
		for _, j := range dom.Indices() {
			inDomain[j] = append(inDomain[j], int32(i))
		}
		for _, j := range dom.BorderIndices() {
			inDomain[j] = append(inDomain[j], int32(i))
		}
	}
	shareDomain := func(p, q int32) bool {
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
	for _, c := range o.chans {
		if shareDomain(c.from, c.to) {
			continue
		}
		cd3Total += c.count
		for k := c.count; k > 0 && cd3Reported < 10; k-- { // cap noise; one violation proves the breach
			rep.violatef("CD3", "message %s→%s outside any faulty domain ∪ border", o.id(c.from), o.id(c.to))
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
			for _, q := range d.view.BorderIndices() {
				if crashed.Has(q) {
					continue
				}
				if first[q] == 0 {
					rep.violatef("CD4", "%s decided %s but correct border node %s never decided",
						d.node, d.view, o.id(q))
				}
			}
		}
	}

	// CD5 (uniform border agreement): deciders on the border of a decided
	// view decided identically. Uniform: crashed deciders count too.
	for _, d := range decisions {
		for _, q := range d.view.BorderIndices() {
			for j := first[q]; j > 0; j = next[j-1] {
				dq := &decisions[j-1]
				if dq.view.err == nil && (!dq.view.Equal(d.view.Region) || dq.value != d.value) {
					rep.violatef("CD5", "%s decided (%s,%q) but border node %s decided (%s,%q)",
						d.node, d.view, d.value, o.id(q), dq.view, dq.value)
				}
			}
		}
	}

	// CD6 (view convergence): overlapping views decided by correct nodes
	// are equal.
	for i := 0; i < len(decisions); i++ {
		if crashed.Has(decisions[i].idx) {
			continue
		}
		for j := i + 1; j < len(decisions); j++ {
			if crashed.Has(decisions[j].idx) {
				continue
			}
			vi, vj := &decisions[i].view, &decisions[j].view
			if vi.Intersects(vj.Region) && !vi.Equal(vj.Region) {
				rep.violatef("CD6", "correct nodes %s and %s decided overlapping distinct views %s and %s",
					decisions[i].node, decisions[j].node, vi, vj)
			}
		}
	}

	// CD7 (progress): every faulty cluster has ≥1 correct decider on the
	// border of one of its domains. Clusters are the transitive closure of
	// border adjacency; each is listed at its first domain, so a report
	// renders the same every time.
	clusters := dsu.New(len(domains))
	for i := 0; i < len(domains); i++ {
		for j := i + 1; j < len(domains); j++ {
			if bordersIntersect(domains[i], domains[j]) {
				clusters.Union(int32(i), int32(j))
			}
		}
	}
	type cluster struct{ hasBorder, decided, listed bool }
	byRoot := make([]cluster, len(domains))
	for i, dom := range domains {
		c := &byRoot[clusters.Find(int32(i))]
		if dom.BorderLen() > 0 {
			c.hasBorder = true
		}
		for _, p := range dom.BorderIndices() {
			if !crashed.Has(p) && first[p] > 0 {
				c.decided = true
			}
		}
	}
	for i := range domains {
		root := clusters.Find(int32(i))
		c := &byRoot[root]
		if !c.hasBorder || c.listed {
			continue
		}
		c.listed = true
		rep.Clusters++
		if c.decided {
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

// bordersIntersect reports whether two domains share a border node: a
// merge of their ascending border indices.
func bordersIntersect(a, b region.Region) bool {
	x, y := a.BorderIndices(), b.BorderIndices()
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] == y[0]:
			return true
		case x[0] < y[0]:
			x = x[1:]
		default:
			y = y[1:]
		}
	}
	return false
}

// AutomataViolations extracts internal invariant breaches recorded by
// automata that expose a Violations() []string method (e.g. the core
// protocol node), by node ID. It is generic over the map's value type so
// callers can pass their concrete automaton maps directly.
func AutomataViolations[T any](automata map[graph.NodeID]T) []Violation {
	ids := make([]graph.NodeID, 0, len(automata))
	for id := range automata {
		ids = append(ids, id)
	}
	graph.SortIDs(ids)
	var out []Violation
	for _, id := range ids {
		if v, ok := any(automata[id]).(interface{ Violations() []string }); ok {
			for _, s := range v.Violations() {
				out = append(out, Violation{"INTERNAL", fmt.Sprintf("%s: %s", id, s)})
			}
		}
	}
	return out
}
