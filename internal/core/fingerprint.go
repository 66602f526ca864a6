package core

import (
	"fmt"
	"sort"
	"strings"

	"cliffedge/internal/graph"
)

// Fingerprint serialises the node's complete protocol state into a
// canonical string. Two nodes with equal fingerprints behave identically
// on all future inputs. The bounded model checker uses fingerprints to
// deduplicate interleavings that converge to the same global state.
func (n *Node) Fingerprint() string {
	st := n.view()   // a dormant node renders as the state it would take
	st.materialise() // mx= and cd= render the views a pending component stands for
	g := n.run.cfg.Graph
	var sb strings.Builder
	sb.WriteString(string(n.id))
	sb.WriteByte('#')
	if st.decided != nil {
		fmt.Fprintf(&sb, "D%s=%s", st.decided.View.Key(), st.decided.Value)
	}
	fmt.Fprintf(&sb, "|p=%v,%s|r=%d|vp=%s|mx=%s|cd=%s|",
		st.hasProposed, st.proposedValue, st.round,
		st.vp.Key(), st.maxView.Key(), st.candidateView.Key())
	sb.WriteString("lc=")
	writeIndexSet(&sb, g, st.locallyCrashed)
	sb.WriteString("|mon=")
	if !st.witnessed() && n.started {
		// Not sized yet: the monitored set is the neighbours (see Start).
		writeIndices(&sb, g, g.NeighborIndices(n.selfIdx))
	} else {
		writeIndexSet(&sb, g, st.monitored)
	}
	// The view table has no order of its own: render rejected, then
	// received, each sorted by key.
	var rejected []string
	var received []*instance
	for s := range st.views.all {
		if s.inst == nil {
			rejected = append(rejected, s.key)
		} else {
			received = append(received, s.inst)
		}
	}
	sort.Strings(rejected)
	sort.Slice(received, func(i, j int) bool { return received[i].view.Key() < received[j].view.Key() })
	sb.WriteString("|rej=")
	sb.WriteString(strings.Join(rejected, ";"))
	sb.WriteString("|rcv=")
	for _, inst := range received {
		fmt.Fprintf(&sb, "{%s;B=%v;L=%d", inst.view.Key(), inst.view.Border(), inst.lastRound)
		for r := 1; r <= inst.lastRound; r++ {
			// A round never written renders as the |B| ⊥ slots it stands
			// for without being allocated.
			fmt.Fprintf(&sb, ";r%d=", r)
			var masks []uint64
			if round := inst.round(r); round != nil {
				masks = round[inst.words:]
			}
			writeOpinions(&sb, len(inst.borderIdx), masks, inst.values)
			fmt.Fprintf(&sb, ";w%d=", r)
			first := true
			for j := range inst.borderIdx {
				if !inst.waitingFor(r, j) {
					continue
				}
				if !first {
					sb.WriteByte(',')
				}
				first = false
				sb.WriteString(string(inst.view.BorderID(j)))
			}
		}
		sb.WriteByte('}')
	}
	sb.WriteString("|self=")
	for _, m := range st.pendingSelf[st.psHead:] {
		sb.WriteString(m.String())
	}
	return sb.String()
}

// writeIndexSet renders a bitset of graph indices as a sorted
// comma-joined NodeID list (index order is NodeID order), keeping
// fingerprints byte-identical to the historical map-of-NodeID rendering.
func writeIndexSet(sb *strings.Builder, g *graph.Graph, set graph.Bitset) {
	first := true
	set.ForEach(func(i int32) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(string(g.ID(i)))
	})
}

// writeIndices renders ascending graph indices as writeIndexSet renders a
// bitset holding them.
func writeIndices(sb *strings.Builder, g *graph.Graph, indices []int32) {
	for k, i := range indices {
		if k > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(string(g.ID(i)))
	}
}

// MessageFingerprint serialises a message canonically (model checker
// channel-state hashing).
func MessageFingerprint(m *Message) string {
	return fmt.Sprintf("%d|%s|%v|%s", m.Round, m.View.Key(), m.View.Border(), m.opinions())
}
