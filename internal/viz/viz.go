// Package viz renders run outcomes for humans: ASCII maps of grid
// topologies (who crashed, who decided what) and message-flow summaries.
// The experiment CLIs use it for at-a-glance verification that locality
// holds — the picture shows activity hugging the crashed region.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"cliffedge/internal/graph"
	"cliffedge/internal/trace"
)

// GridMap renders a rows×cols grid topology as an ASCII map:
//
//	#  crashed node
//	D  correct node that decided
//	*  correct node that sent or received messages but did not decide
//	·  untouched node
//
// Nodes must be named by graph.GridID. The legend line is included.
func GridMap(rows, cols int, events []trace.Event, crashed map[graph.NodeID]bool) string {
	decided := make(map[graph.NodeID]bool)
	active := make(map[graph.NodeID]bool)
	for _, e := range events {
		switch e.Kind {
		case trace.KindDecide:
			decided[e.Node] = true
		case trace.KindSend:
			active[e.Node] = true
			active[e.Peer] = true
		}
	}
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(' ')
			}
			n := graph.GridID(r, c)
			switch {
			case crashed[n]:
				sb.WriteByte('#')
			case decided[n]:
				sb.WriteByte('D')
			case active[n]:
				sb.WriteByte('*')
			default:
				sb.WriteRune('·')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("legend: # crashed   D decided   * messaged   · untouched\n")
	return sb.String()
}

// FlowSummary tabulates per-node message counts (sent/received), sorted by
// volume — the locality fingerprint of a run.
func FlowSummary(events []trace.Event, top int) string {
	type flow struct {
		node       graph.NodeID
		sent, recv int
	}
	byNode := make(map[graph.NodeID]*flow)
	get := func(n graph.NodeID) *flow {
		f := byNode[n]
		if f == nil {
			f = &flow{node: n}
			byNode[n] = f
		}
		return f
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KindSend:
			get(e.Node).sent++
		case trace.KindDeliver:
			get(e.Node).recv++
		}
	}
	flows := make([]*flow, 0, len(byNode))
	for _, f := range byNode {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].sent+flows[i].recv != flows[j].sent+flows[j].recv {
			return flows[i].sent+flows[i].recv > flows[j].sent+flows[j].recv
		}
		return flows[i].node < flows[j].node
	})
	if top > 0 && len(flows) > top {
		flows = flows[:top]
	}
	var sb strings.Builder
	for _, f := range flows {
		fmt.Fprintf(&sb, "%-14s sent=%-5d recv=%-5d\n", f.node, f.sent, f.recv)
	}
	fmt.Fprintf(&sb, "(%d nodes exchanged messages)\n", len(byNode))
	return sb.String()
}

// Timeline buckets protocol events over virtual time into a sparkline-like
// activity strip, one row per event kind.
func Timeline(events []trace.Event, buckets int) string {
	if len(events) == 0 || buckets <= 0 {
		return "(empty trace)\n"
	}
	end := events[len(events)-1].Time
	if end == 0 {
		end = 1
	}
	kinds := []trace.Kind{trace.KindCrash, trace.KindDetect, trace.KindPropose,
		trace.KindReject, trace.KindReset, trace.KindDecide}
	counts := make(map[trace.Kind][]int)
	for _, k := range kinds {
		counts[k] = make([]int, buckets)
	}
	for _, e := range events {
		row, ok := counts[e.Kind]
		if !ok {
			continue
		}
		b := int(e.Time * int64(buckets-1) / end)
		row[b]++
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, k := range kinds {
		max := 0
		for _, c := range counts[k] {
			if c > max {
				max = c
			}
		}
		fmt.Fprintf(&sb, "%-8s|", k)
		for _, c := range counts[k] {
			idx := 0
			if max > 0 && c > 0 {
				idx = 1 + c*(len(glyphs)-2)/max
			}
			sb.WriteRune(glyphs[idx])
		}
		sb.WriteString("|\n")
	}
	fmt.Fprintf(&sb, "t=0 %*s t=%d\n", buckets-3, "", end)
	return sb.String()
}
