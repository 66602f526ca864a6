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
	"math/bits"
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
//
// An opinion is three-valued, so a vector is a pair of disjoint sets of
// border positions, and a message carries that pair as bitmasks beside the
// vector: the receiver merges by words instead of reading |B| slots. The
// masks are derived state, a function of Opinions alone: they are not wire
// bytes (WireSize does not count them), String and the fingerprints do not
// print them, and two messages with equal fields are the same message
// whether or not either carries them. The sending node builds them once
// per multicast; a Message assembled by hand (tests, harnesses) has none
// and gets them computed from its vector when it is delivered. Opinions is
// immutable once the message exists, like every payload, so the masks
// cannot go stale.
//
// The sender's border position is derived state of the same kind: the
// sending node knows it when it builds the message, so the receiver does
// not search the border for the sender's name on every delivery (line 25
// stops waiting for the sender). A message assembled by hand does not
// carry it and gets it computed, from the name it was delivered from, by
// the same rule that fills its masks.
//
// A Message travels by pointer (*Message is the payload type): the one
// message a multicast builds is shared by all its recipients and by the
// sender's own queued copy, never copied or changed after it is sent.
type Message struct {
	Round    int
	View     region.Region
	Border   []graph.NodeID
	Opinions Vector
	// masks is Opinions' two bitmasks as fillMasks lays them out, or nil.
	masks []uint64
	// sender is 1 + the sender's position in Border, or 0 if the message
	// does not carry it.
	sender int32
}

// maskWords is the number of 64-bit words in a bitmask over n border
// positions.
func maskWords(n int) int { return (n + 63) >> 6 }

// fillMasks sets masks, 2·maskWords(len(v)) zero words, to the two bitmasks
// of v: known (slot j ≠ ⊥ ⇔ bit j), then rejects (slot j is a reject ⇔
// bit j; a subset of known), maskWords(len(v)) words each.
func fillMasks(masks []uint64, v Vector) {
	words := len(masks) / 2
	for j, op := range v {
		if op.Kind == Unknown {
			continue
		}
		masks[j>>6] |= 1 << uint(j&63)
		if op.Kind == Reject {
			masks[words+j>>6] |= 1 << uint(j&63)
		}
	}
}

// Kind labels the payload for traces.
func (m *Message) Kind() string { return "cliffedge" }

// TraceView exposes the view key and round for trace annotation; runtimes
// discover it through an interface assertion so they stay payload-agnostic.
func (m *Message) TraceView() (string, int) { return m.View.Key(), m.Round }

// WireSize estimates the encoded payload size in bytes: the round tag, the
// view's node IDs, the border IDs, one tag byte per opinion slot, and the
// value bytes of each accept. The indexed vector format never repeats a
// NodeID per slot — the border listing already fixes every position.
func (m *Message) WireSize() int {
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
func (m *Message) Opinion(q graph.NodeID) Opinion {
	if j := borderPos(m.Border, q); j >= 0 && j < len(m.Opinions) {
		return m.Opinions[j]
	}
	return Opinion{}
}

// String renders the message compactly for traces and debugging.
func (m *Message) String() string {
	return fmt.Sprintf("[r=%d V=%s B=%v op=%s]", m.Round, m.View, m.Border, m.Opinions)
}

var _ proto.Payload = (*Message)(nil)

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
// Opinion rows and their bitmasks exist only for rounds that were touched:
// a view that is rejected after its first message — the common fate in a
// cascade — never pays for the |B| rounds it will not run (at |B| = 96 the
// full matrix would be 223 kB).
type instance struct {
	view region.Region
	// border is B, the view's own border, and borderIdx the same nodes as
	// dense graph indices. Both are shared with the view, not copied:
	// Region slices are immutable, and borderIdx is also handed to the
	// network as the recipients (proto.Send.To) of every multicast about
	// the view.
	border    []graph.NodeID
	borderIdx []int32
	lastRound int // |B| (default) or |B|−1 (LiteralPaperRounds)
	// rows[r] is round r's opinions (column j = border[j]), allocated by
	// the first write to that round. A nil row, and every r ≥ len(rows),
	// reads as all-⊥ — exactly what lines 20–21 initialise.
	rows [][]Opinion
	// bits holds three bitmasks over border positions for each round
	// 1..len(bits)/(3·words), `words` words each and in this order:
	//
	//	waiting  bit j set ⇔ still waiting for border[j] in the round
	//	known    bit j set ⇔ rows[r][j] ≠ ⊥
	//	rejects  bit j set ⇔ rows[r][j] is a reject (a subset of known)
	//
	// known and rejects are derived from the row: they exist so that a
	// delivery finds the slots a message has news for with one AND-NOT per
	// word, and so that the next outgoing vector gets its masks by a copy.
	// Fingerprint prints the row and the waiting set, never these two.
	// The slice grows to the highest round a delivery touched (see masks);
	// a round beyond it reads as line 22 initialises it: waiting for all
	// of B, nothing known.
	bits  []uint64
	words int // maskWords(len(border))
}

func newInstance(view region.Region, literalRounds bool) *instance {
	border := view.Border()
	last := len(border)
	if literalRounds {
		last = len(border) - 1
	}
	return &instance{
		view:      view,
		border:    border,
		borderIdx: view.BorderIndices(),
		lastRound: last,
		words:     maskWords(len(border)),
	}
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

// allOf returns word w of the bitmask holding every border position.
func (inst *instance) allOf(w int) uint64 {
	if tail := uint(len(inst.border) & 63); tail != 0 && w == inst.words-1 {
		return 1<<tail - 1
	}
	return ^uint64(0)
}

// round returns the 3·words words of bits that belong to round r, nil if no
// delivery touched a round that late.
func (inst *instance) round(r int) []uint64 {
	if end := 3 * inst.words * r; end <= len(inst.bits) {
		return inst.bits[end-3*inst.words : end]
	}
	return nil
}

// masks returns round r's three bitmasks for writing, first extending bits
// through round r: waiting[V][r] ← B (line 22) a word at a time, known and
// rejects empty.
func (inst *instance) masks(r int) (waiting, known, rejects []uint64) {
	words := inst.words
	for len(inst.bits) < 3*words*r {
		inst.bits = append(inst.bits, make([]uint64, 3*words)...)
		waiting := inst.bits[len(inst.bits)-3*words:][:words]
		for w := range waiting {
			waiting[w] = inst.allOf(w)
		}
	}
	round := inst.round(r)
	return round[:words], round[words : 2*words], round[2*words:]
}

// waiting returns round r's waiting set for reading: nil if no delivery
// touched the round, which readers treat as all of B.
func (inst *instance) waiting(r int) []uint64 {
	if round := inst.round(r); round != nil {
		return round[:inst.words]
	}
	return nil
}

// waitingFor reports whether round r still waits for border position j.
func (inst *instance) waitingFor(r, j int) bool {
	waiting := inst.waiting(r)
	return waiting == nil || waiting[j>>6]&(1<<uint(j&63)) != 0
}

// merge folds the opinion vector of a round-r message into the instance
// (lines 23–25): ⊥ slots take the message's opinion, and the round stops
// waiting for the sender, at border position senderPos (-1 for none), and
// for every rejector the message knows of. ops has |B| slots and opMasks
// are its bitmasks, so the work is a few operations per 64 border
// positions plus one slot copy per opinion that is news to the row.
func (inst *instance) merge(r, senderPos int, ops Vector, opMasks []uint64) {
	row := inst.row(r)
	waiting, known, rejects := inst.masks(r)
	opKnown, opRejects := opMasks[:inst.words], opMasks[inst.words:]
	for w := range known {
		fresh := opKnown[w] &^ known[w] // lines 23–24: fill ⊥ slots only
		known[w] |= fresh
		rejects[w] |= fresh & opRejects[w]
		waiting[w] &^= opRejects[w] // line 25, the rejectors
		for ; fresh != 0; fresh &= fresh - 1 {
			j := w<<6 | bits.TrailingZeros64(fresh)
			row[j] = ops[j]
		}
	}
	if senderPos >= 0 { // line 25, the sender
		waiting[senderPos>>6] &^= 1 << uint(senderPos&63)
	}
}

// vector materialises round r's opinions as a wire Vector: a copy of the
// positional row (payloads outlive the instance's mutable bookkeeping, so
// the row cannot be aliased). A round never written yields |B| ⊥ slots.
func (inst *instance) vector(r int) Vector {
	out := make(Vector, len(inst.border))
	copy(out, inst.peek(r))
	return out
}

// vectorMasks sets masks, 2·words zero words, to what fillMasks computes
// for inst.vector(r), without reading the vector: the round's known and
// rejects words are stored in that order.
func (inst *instance) vectorMasks(masks []uint64, r int) {
	if round := inst.round(r); round != nil {
		copy(masks, round[inst.words:])
	}
}

// clone deep-copies the instance's mutable state (used by the model
// checker); border and borderIdx are immutable and stay shared.
func (inst *instance) clone() *instance {
	out := *inst
	out.rows = make([][]Opinion, len(inst.rows))
	for r, row := range inst.rows {
		out.rows[r] = slices.Clone(row) // nil stays nil
	}
	out.bits = slices.Clone(inst.bits)
	return &out
}
