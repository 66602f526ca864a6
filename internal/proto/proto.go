// Package proto defines the contract between protocol automata (the
// cliff-edge core, the baselines, the stable-predicate extension) and the
// runtimes that execute them (the deterministic simulator, the goroutine
// runtime, the bounded model checker).
//
// An automaton is a deterministic event-driven state machine in the style of
// the paper's mono-threaded event model (§2.3): the runtime feeds it
// 〈init〉, 〈crash | q〉 and 〈mDeliver | p, m〉 events, and the automaton
// returns the Effects those events triggered — failure-detector
// subscriptions (〈monitorCrash | S〉), multicasts (〈multicast | R, m〉), a
// decision (〈decide | S, d〉), and trace annotations. Automata never touch
// the network or clock directly, which is what makes runs reproducible and
// model-checkable.
package proto

import (
	"cliffedge/internal/graph"
	"cliffedge/internal/region"
)

// Value is a decision value — the paper's d in 〈decide | S, d〉, e.g. an
// identifier of a repair plan. Values are ordered strings so that
// deterministicPick can default to lexicographic minimum.
type Value string

// Payload is a protocol message body. WireSize is an estimate of the
// encoded size in bytes, used by the byte-count metrics; Kind is a short
// label for traces.
type Payload interface {
	WireSize() int
	Kind() string
}

// Send is one multicast: the same payload delivered to each recipient over
// the underlying point-to-point FIFO channels (the paper's best-effort
// multicast of §3.1). To lists the recipients by dense graph index
// (graph.Index), so that no runtime resolves a name per message. To may
// include the sender — automata self-deliver synchronously (see the core
// package), so network layers must skip the sender's own entry rather than
// loop the message back. This lets an automaton hand an immutable index
// list it already holds (a view's border indices, a node's CSR adjacency)
// to the network as-is instead of building one per multicast. The payload
// is shared by every recipient and must not change once sent.
type Send struct {
	To      []int32
	Payload Payload
}

// Decision is the outcome of 〈decide | S, d〉: the agreed view and value.
type Decision struct {
	View  region.Region
	Value Value
}

// Effects collects everything one event handler invocation triggered. The
// zero value means "no effects". Runtimes apply effects in field order:
// subscriptions, sends, then the decision.
//
// Effect slices may share backing storage with the automaton that
// produced them (hot automata reuse scratch buffers across invocations),
// so they are valid only until the next call into that automaton. A
// consumer that retains effects past that point must copy them.
type Effects struct {
	// Monitor lists nodes to subscribe crash notifications for
	// (〈monitorCrash | S〉), by dense graph index. Duplicate subscriptions
	// are harmless.
	Monitor []int32
	// Sends lists multicasts to hand to the network, in emission order
	// (FIFO channels preserve this order per destination).
	Sends []Send
	// Decision is non-nil iff the automaton decided during this event.
	Decision *Decision
	// Proposed lists views for which a consensus instance was started
	// during this event (trace annotation).
	Proposed []region.Region
	// Rejected lists views rejected during this event (trace annotation).
	Rejected []region.Region
	// Resets counts consensus attempts that failed and were reset during
	// this event (trace annotation).
	Resets int
}

// Merge appends other's effects onto e.
func (e *Effects) Merge(other Effects) {
	e.Monitor = append(e.Monitor, other.Monitor...)
	e.Sends = append(e.Sends, other.Sends...)
	if other.Decision != nil {
		e.Decision = other.Decision
	}
	e.Proposed = append(e.Proposed, other.Proposed...)
	e.Rejected = append(e.Rejected, other.Rejected...)
	e.Resets += other.Resets
}

// IsZero reports whether the effects carry nothing at all.
func (e *Effects) IsZero() bool {
	return len(e.Monitor) == 0 && len(e.Sends) == 0 && e.Decision == nil &&
		len(e.Proposed) == 0 && len(e.Rejected) == 0 && e.Resets == 0
}

// Automaton is the node-local protocol state machine contract.
//
// Handlers must be deterministic: identical event sequences must produce
// identical effects. Handlers are never invoked concurrently for the same
// automaton; runtimes serialize per node.
type Automaton interface {
	// ID returns the node this automaton runs on.
	ID() graph.NodeID
	// Start handles 〈init〉, returning the initial subscriptions.
	Start() Effects
	// OnCrash handles 〈crash | q〉 from the failure detector.
	OnCrash(q graph.NodeID) Effects
	// OnMessage handles 〈mDeliver | from, payload〉.
	OnMessage(from graph.NodeID, payload Payload) Effects
	// Decided returns the decision taken by this node, or nil.
	Decided() *Decision
}

// Factory instantiates the automaton for one node; runtimes call it once
// per node in the graph.
type Factory func(id graph.NodeID) Automaton
