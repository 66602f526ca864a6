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
	"strings"

	"cliffedge/internal/proto"
	"cliffedge/internal/region"
)

// Message is the protocol message [r, V, B, op] of lines 17, 31 and 40: a
// round number, the proposed view, the view's border (the instance's
// participant set), and the sender's opinion vector for that round. B is
// not a field: the view is a region, which holds its border, so border[j]
// below is the view's j-th border node.
//
// An opinion is three-valued — ⊥, accept(v) or reject — so a vector over
// border positions is a pair of bitmasks plus the values of its accepts:
// bit j of known is set ⇔ border[j]'s slot is not ⊥, bit j of rejects ⇔ it
// is a reject (rejects ⊆ known), and values[j] is border[j]'s accept value
// for every j in known \ rejects. A participant proposes a view at most once
// (Lemma 2), with one value, so its accept value is the same in every round
// and every message: the values form one column per view rather than one
// per round, and a round message carries its sender's instance column (see
// instance.values) instead of a copy. values is nil when no slot is an
// accept, which is always the case for a reject's round-1 message.
//
// Messages are built only by this package. The sender's border position
// travels with the message, so the receiver does not search the border for
// the sender's name on every delivery (line 25 stops waiting for the
// sender).
//
// A Message travels by pointer (*Message is the payload type): the one
// message a multicast builds is shared by all its recipients and by the
// sender's own queued copy, never copied or changed after it is sent.
type Message struct {
	Round int
	View  region.Region
	// masks is known, then rejects, maskWords(View.BorderLen()) words each.
	masks []uint64
	// values is the accept column: values[j] is read only for j in
	// known \ rejects.
	values []proto.Value
	// sender is 1 + the sender's position in the view's border, or 0 if the
	// sender is not a participant.
	sender int32
}

// maskWords is the number of 64-bit words in a bitmask over n border
// positions.
func maskWords(n int) int { return (n + 63) >> 6 }

// writeOpinions renders the opinion vector over n border positions that
// masks (known, then rejects; nil for all ⊥) and values stand for,
// positionally, e.g. "[accept(v1) ⊥ reject]". Positions render in index
// order, so the output is deterministic by construction — no
// iteration-order dependence to leak into fingerprints.
func writeOpinions(sb *strings.Builder, n int, masks []uint64, values []proto.Value) {
	words := len(masks) / 2
	sb.WriteByte('[')
	for j := 0; j < n; j++ {
		if j > 0 {
			sb.WriteByte(' ')
		}
		bit := uint64(1) << uint(j&63)
		switch {
		case masks == nil || masks[j>>6]&bit == 0:
			sb.WriteString("⊥")
		case masks[words+j>>6]&bit != 0:
			sb.WriteString("reject")
		default:
			sb.WriteString("accept(")
			sb.WriteString(string(values[j]))
			sb.WriteByte(')')
		}
	}
	sb.WriteByte(']')
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
	// Each view ID and each border ID with one separator byte; the key is
	// the view's IDs joined by ','.
	size += len(m.View.Key()) + 1
	border := m.View.BorderLen()
	for k := range border {
		size += len(m.View.BorderID(k)) + 1
	}
	size += border // 1 tag byte per slot
	words := len(m.masks) / 2
	for w := 0; w < words; w++ {
		for accepts := m.masks[w] &^ m.masks[words+w]; accepts != 0; accepts &= accepts - 1 {
			size += len(m.values[w<<6|bits.TrailingZeros64(accepts)]) + 1
		}
	}
	return size
}

// opinions renders the message's opinion vector, e.g. "[accept(v1) ⊥ reject]".
func (m *Message) opinions() string {
	var sb strings.Builder
	writeOpinions(&sb, m.View.BorderLen(), m.masks, m.values)
	return sb.String()
}

// String renders the message compactly for traces and debugging.
func (m *Message) String() string {
	return fmt.Sprintf("[r=%d V=%s B=%v op=%s]", m.Round, m.View, m.View.Border(), m.opinions())
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
// The bookkeeping is position-indexed: bit j of every mask, and slot j of
// the value column, is border[j]. A round's opinions are its known and
// rejects masks plus the instance's one value column (see Message), and
// they exist only for rounds that were touched: a view that is rejected
// after its first message — the common fate in a cascade — never pays for
// the |B| rounds it will not run.
type instance struct {
	view region.Region
	// borderIdx is B, the view's own border, as dense graph indices. It is
	// the view's slice, not a copy: Region slices are immutable, and
	// borderIdx is also handed to the network as the recipients
	// (proto.Send.To) of every multicast about the view.
	borderIdx []int32
	lastRound int // |B| (default) or |B|−1 (LiteralPaperRounds)
	// bits holds three bitmasks over border positions for each round
	// 1..len(bits)/(3·words), `words` words each and in this order:
	//
	//	waiting  bit j set ⇔ still waiting for border[j] in the round
	//	known    bit j set ⇔ opinions[V][r][j] ≠ ⊥
	//	rejects  bit j set ⇔ opinions[V][r][j] is a reject (⊆ known)
	//
	// known and rejects are laid out as a Message's masks, so the next
	// outgoing vector gets its masks by a copy, and a delivery finds the
	// slots a message has news for with one AND-NOT per word. The slice
	// grows to the highest round a delivery touched (see masks); a round
	// beyond it reads as lines 20–22 initialise it: waiting for all of B,
	// every opinion ⊥.
	bits  []uint64
	words int // maskWords(len(borderIdx))
	// values is the value column: values[j] is border[j]'s accept value,
	// the same in every round (see Message), set iff bit j of valued is.
	// Both are allocated by the first accept. The column is shared with
	// every round message this node sends about the view (guardRound),
	// which is safe because
	//
	//   - a slot is written once, before any message whose accept mask
	//     names it exists;
	//   - a reader reads only the slots its message's accept mask names, so
	//     a later write (always to a slot not yet valued) and a concurrent
	//     read — another node's goroutine or simulator lane — touch
	//     different elements;
	//   - clone deep-copies the column, and the decision hands Pick a copy.
	values []proto.Value
	valued []uint64
}

func newInstance(view region.Region, literalRounds bool) *instance {
	border := view.BorderIndices()
	last := len(border)
	if literalRounds {
		last = len(border) - 1
	}
	return &instance{
		view:      view,
		borderIdx: border,
		lastRound: last,
		words:     maskWords(len(border)),
	}
}

// validRound reports whether r is a round of this instance.
func (inst *instance) validRound(r int) bool { return r >= 1 && r <= inst.lastRound }

// allOf returns word w of the bitmask holding every border position.
func (inst *instance) allOf(w int) uint64 {
	if tail := uint(len(inst.borderIdx) & 63); tail != 0 && w == inst.words-1 {
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

// merge folds the opinions of a round-r message — its masks and value
// column — into the instance (lines 23–25): ⊥ slots take the message's
// opinion, and the round stops waiting for the sender, at border position
// senderPos (-1 for none), and for every rejector the message knows of.
// The work is a few operations per 64 border positions plus one column
// check per accept that is news to the round. It returns the position of
// an accept whose value differs from the one the column already holds for
// that participant (the first value is kept), or -1.
func (inst *instance) merge(r, senderPos int, opMasks []uint64, opValues []proto.Value) (conflict int) {
	conflict = -1
	waiting, known, rejects := inst.masks(r)
	opKnown, opRejects := opMasks[:inst.words], opMasks[inst.words:]
	for w := range known {
		fresh := opKnown[w] &^ known[w] // lines 23–24: fill ⊥ slots only
		known[w] |= fresh
		rejects[w] |= fresh & opRejects[w]
		waiting[w] &^= opRejects[w] // line 25, the rejectors
		for accepts := fresh &^ opRejects[w]; accepts != 0; accepts &= accepts - 1 {
			if j := w<<6 | bits.TrailingZeros64(accepts); !inst.setValue(j, opValues[j]) {
				conflict = j
			}
		}
	}
	if senderPos >= 0 { // line 25, the sender
		waiting[senderPos>>6] &^= 1 << uint(senderPos&63)
	}
	return conflict
}

// setValue records v as border[j]'s accept value unless the column holds
// one already, and reports whether the column's value is v.
func (inst *instance) setValue(j int, v proto.Value) bool {
	if inst.values == nil {
		inst.values = make([]proto.Value, len(inst.borderIdx))
		inst.valued = make([]uint64, inst.words)
	}
	bit := uint64(1) << uint(j&63)
	if inst.valued[j>>6]&bit != 0 {
		return inst.values[j] == v
	}
	inst.valued[j>>6] |= bit
	inst.values[j] = v
	return true
}

// opinions sets masks, 2·words zero words, to round r's known and rejects
// masks: the opinion vector of round r is masks plus inst.values.
func (inst *instance) opinions(masks []uint64, r int) {
	if round := inst.round(r); round != nil {
		copy(masks, round[inst.words:])
	}
}

// unanimous reports whether every slot of round r is an accept (line 34's
// condition). A round nobody wrote to is all-⊥, not vacuously all-accept.
func (inst *instance) unanimous(r int) bool {
	round := inst.round(r)
	if round == nil {
		return false
	}
	known, rejects := round[inst.words:2*inst.words], round[2*inst.words:]
	for w := range known {
		if known[w] != inst.allOf(w) || rejects[w] != 0 {
			return false
		}
	}
	return true
}

// clone deep-copies the instance's mutable state (used by the model
// checker); view and borderIdx are immutable and stay shared.
func (inst *instance) clone() *instance {
	out := *inst
	out.bits = slices.Clone(inst.bits)
	out.values = slices.Clone(inst.values)
	out.valued = slices.Clone(inst.valued)
	return &out
}
