// Package core implements the cliff-edge consensus protocol — Algorithm 1
// of Taïani, Porter, Coulson & Raynal, "Cliff-Edge Consensus: Agreeing on
// the Precipice" (PaCT 2013) — as a pure, deterministic event-driven state
// machine.
//
// The protocol is a superposition of flooding uniform consensus instances,
// one per proposed view (candidate crashed region), arbitrated by the
// strict total ranking of regions from §3.1: a node that knows of a
// lower-ranked conflicting view rejects it, forcing its proposers to back
// off, re-detect the (grown) region, and re-propose, until every border
// node of a stable faulty domain proposes the same maximal view and the
// flooding instance completes with an all-accept vector.
//
// Doc comments below cite "line n" meaning line n of Algorithm 1 in the
// paper.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// OpinionKind is the state of one participant's slot in an opinion vector.
type OpinionKind uint8

const (
	// Unknown is ⊥: no opinion learned yet for this participant.
	Unknown OpinionKind = iota
	// Accept carries the participant's proposed decision value.
	Accept
	// Reject marks that the participant rejected the view (line 30).
	Reject
)

// String returns "⊥", "accept" or "reject".
func (k OpinionKind) String() string {
	switch k {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return "⊥"
	}
}

// Opinion is one slot of an opinion vector: ⊥, reject, or (accept, value).
type Opinion struct {
	Kind  OpinionKind
	Value proto.Value // meaningful iff Kind == Accept
}

// Vector is an opinion vector opinions[V][r][·], indexed by border
// position: slot j is the opinion of border[j], where the border is in
// sorted NodeID order (the canonical order region.Border produces). The
// zero Opinion is ⊥. Positional indexing removes every map operation from
// the delivery hot path and shrinks the wire encoding — slots no longer
// repeat their NodeID, because the position already names the node.
type Vector []Opinion

// VectorOf builds a positional vector over border from a by-NodeID map;
// absent nodes stay ⊥. Border must be sorted. Intended for tests and
// harnesses — the protocol itself constructs vectors positionally.
func VectorOf(border []graph.NodeID, ops map[graph.NodeID]Opinion) Vector {
	v := make(Vector, len(border))
	for q, op := range ops {
		if j := borderPos(border, q); j >= 0 {
			v[j] = op
		}
	}
	return v
}

// borderPos returns q's position in a sorted border, or -1.
func borderPos(border []graph.NodeID, q graph.NodeID) int {
	i := sort.Search(len(border), func(i int) bool { return border[i] >= q })
	if i < len(border) && border[i] == q {
		return i
	}
	return -1
}

// Clone deep-copies the vector.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Known returns the number of non-⊥ slots.
func (v Vector) Known() int {
	n := 0
	for _, op := range v {
		if op.Kind != Unknown {
			n++
		}
	}
	return n
}

// allAccept reports whether every slot of an opinion row is an Accept
// (line 34's condition), returning the accepted values in border order.
// The values slice is only built once the row is known to qualify: most
// final rows of a cascade carry a reject.
func allAccept(row []Opinion) ([]proto.Value, bool) {
	for _, op := range row {
		if op.Kind != Accept {
			return nil, false
		}
	}
	values := make([]proto.Value, len(row))
	for j, op := range row {
		values[j] = op.Value
	}
	return values, true
}

// String renders the vector positionally, e.g. "[accept(v1) ⊥ reject]".
// Slices render in index order, so the output is deterministic by
// construction — no iteration-order dependence to leak into fingerprints.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for j, op := range v {
		switch op.Kind {
		case Accept:
			parts[j] = fmt.Sprintf("accept(%s)", op.Value)
		case Reject:
			parts[j] = "reject"
		default:
			parts[j] = "⊥"
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Message is the protocol message [r, V, B, op] of lines 17, 31 and 40: a
// round number, the proposed view, the view's border (the instance's
// participant set), and the sender's opinion vector for that round.
type Message struct {
	Round    int
	View     region.Region
	Border   []graph.NodeID
	Opinions Vector
}

// Kind labels the payload for traces.
func (m Message) Kind() string { return "cliffedge" }

// TraceView exposes the view key and round for trace annotation; runtimes
// discover it through an interface assertion so they stay payload-agnostic.
func (m Message) TraceView() (string, int) { return m.View.Key(), m.Round }

// WireSize estimates the encoded payload size in bytes: the round tag, the
// view's node IDs, the border IDs, one tag byte per opinion slot, and the
// value bytes of each accept. The indexed vector format never repeats a
// NodeID per slot — the border listing already fixes every position.
func (m Message) WireSize() int {
	size := 4 // round
	for _, n := range m.View.Nodes() {
		size += len(n) + 1
	}
	for _, n := range m.Border {
		size += len(n) + 1
	}
	size += len(m.Opinions) // 1 tag byte per slot
	for _, op := range m.Opinions {
		if op.Kind == Accept {
			size += len(op.Value) + 1
		}
	}
	return size
}

// Opinion returns the opinion of border node q (⊥ for non-border nodes),
// resolving q's slot by binary search over the sorted border.
func (m Message) Opinion(q graph.NodeID) Opinion {
	if j := borderPos(m.Border, q); j >= 0 && j < len(m.Opinions) {
		return m.Opinions[j]
	}
	return Opinion{}
}

// String renders the message compactly for traces and debugging.
func (m Message) String() string {
	return fmt.Sprintf("[r=%d V=%s B=%v op=%s]", m.Round, m.View, m.Border, m.Opinions)
}

var _ proto.Payload = Message{}

// instance is the per-view consensus bookkeeping: opinions[V][·][·] and
// waiting[V][·] (the data structures initialised at lines 20–22), indexed
// by round 1..lastRound (slot 0 unused).
//
// Round count. Algorithm 1 as printed runs |B|−1 rounds (line 33 tests
// r = |border(Vp)|−1). That is the round count of *regular* flooding
// consensus, which only guarantees agreement among correct deciders. CD5
// is *uniform* — deciders that later crash count — and the classical
// flooding uniform consensus (Guerraoui & Rodrigues, Alg. 5.2, cited as
// [13] by the paper) needs |B| rounds. With |B|−1 rounds there is a real
// counterexample (found by the bounded model checker in internal/mck, see
// TestLiteralRoundsViolateUniformCD5): on a path a-b-c-d with border(b) =
// {a, c}, c can decide ({b}, d) after one round and crash, while a
// completes the round through crash detection before c's in-flight accept
// arrives, resets, and later decides ({b,c}, d′) ≠ ({b}, d) — violating
// CD5 and the paper's Lemma 3. We therefore run |B| rounds by default and
// keep the printed behaviour behind Config.LiteralPaperRounds for
// demonstration and ablation.
//
// The bookkeeping is position-indexed: column j of every row is border[j].
// Opinion rows exist only for rounds that were written: a view that is
// rejected after its first message — the common fate in a cascade — never
// pays for the |B| rounds it will not run (at |B| = 96 the full matrix
// would be 223 kB).
type instance struct {
	view region.Region
	// border is B from the first message received for the view. Borders
	// are immutable wherever they travel (Region.Border, Message.Border,
	// proto.Send.To), so the slice is shared, not copied.
	border    []graph.NodeID
	borderIdx []int32 // dense graph indices of border (-1 if unknown)
	lastRound int     // |B| (default) or |B|−1 (LiteralPaperRounds)
	// rows[r] is round r's opinions (column j = border[j]), allocated by
	// the first write to that round. A nil row, and every r ≥ len(rows),
	// reads as all-⊥ — exactly what lines 20–21 initialise.
	rows [][]Opinion
	// waiting is a (lastRound+1)×waitWords bitset matrix over border
	// positions: bit j of row r set ⇔ still waiting for border[j] in
	// round r.
	waiting   []uint64
	waitWords int
}

func newInstance(g *graph.Graph, view region.Region, border []graph.NodeID, literalRounds bool) *instance {
	last := len(border)
	if literalRounds {
		last = len(border) - 1
	}
	words := (len(border) + 63) / 64
	inst := &instance{
		view:      view,
		border:    border,
		borderIdx: make([]int32, len(border)),
		lastRound: last,
		waiting:   make([]uint64, (last+1)*words),
		waitWords: words,
	}
	for j, q := range border {
		inst.borderIdx[j] = g.Index(q)
	}
	// waiting[V][r] ← B for every round (line 22), a word at a time.
	for r := 1; r <= last; r++ {
		row := inst.waiting[r*words : (r+1)*words]
		for w := range row {
			row[w] = ^uint64(0)
		}
		if tail := uint(len(border) & 63); tail != 0 {
			row[words-1] = 1<<tail - 1
		}
	}
	return inst
}

// validRound reports whether r is a round of this instance.
func (inst *instance) validRound(r int) bool { return r >= 1 && r <= inst.lastRound }

// row returns round r's opinion row for writing, allocating it (all-⊥) on
// the round's first write.
func (inst *instance) row(r int) []Opinion {
	for len(inst.rows) <= r {
		inst.rows = append(inst.rows, nil)
	}
	if inst.rows[r] == nil {
		inst.rows[r] = make([]Opinion, len(inst.border))
	}
	return inst.rows[r]
}

// peek returns round r's opinion row for reading: nil if the round was
// never written, which readers treat as |B| ⊥ slots.
func (inst *instance) peek(r int) []Opinion {
	if r < len(inst.rows) {
		return inst.rows[r]
	}
	return nil
}

// pos returns the border position of q, or -1. Borders are sorted, so a
// binary search replaces the per-instance position map.
func (inst *instance) pos(q graph.NodeID) int {
	return borderPos(inst.border, q)
}

// stopWaiting clears border position j from round r's waiting set.
func (inst *instance) stopWaiting(r, j int) {
	inst.waiting[r*inst.waitWords+j>>6] &^= 1 << uint(j&63)
}

// waitingFor reports whether round r still waits for border position j.
func (inst *instance) waitingFor(r, j int) bool {
	return inst.waiting[r*inst.waitWords+j>>6]&(1<<uint(j&63)) != 0
}

// vector materialises round r's opinions as a wire Vector: a copy of the
// positional row (payloads outlive the instance's mutable bookkeeping, so
// the row cannot be aliased). A round never written yields |B| ⊥ slots.
func (inst *instance) vector(r int) Vector {
	out := make(Vector, len(inst.border))
	copy(out, inst.peek(r))
	return out
}

// clone deep-copies the instance's mutable state (used by the model
// checker); border and borderIdx are immutable and stay shared.
func (inst *instance) clone() *instance {
	out := *inst
	out.rows = make([][]Opinion, len(inst.rows))
	for r, row := range inst.rows {
		out.rows[r] = slices.Clone(row) // nil stays nil
	}
	out.waiting = slices.Clone(inst.waiting)
	return &out
}
