// Package trace provides the structured event log shared by the
// deterministic simulator, the goroutine runtime, the CD1–CD7 property
// checkers and the experiment harness. Every observable step of a run —
// sends, deliveries, crashes, failure detections, proposals, rejections,
// resets and decisions — is appended as an Event; checkers and metrics are
// pure functions over the finished log.
package trace

import (
	"fmt"
	"sync"

	"cliffedge/internal/graph"
)

// Kind enumerates the observable event types of a run.
type Kind uint8

// Event kinds, in rough causal order of a protocol run.
const (
	KindCrash   Kind = iota // Node crashed at Time
	KindDetect              // Node's failure detector reported Peer crashed
	KindSend                // Node sent a message to Peer (View/Round/Bytes set)
	KindDeliver             // Node received a message from Peer
	KindDrop                // message to a crashed Node discarded by the network
	KindPropose             // Node proposed View (started a consensus instance)
	KindReject              // Node rejected View (arbitration, line 26–31)
	KindReset               // Node's consensus attempt on View failed (line 37)
	KindDecide              // Node decided (View, Value)
)

var kindNames = [...]string{
	KindCrash:   "crash",
	KindDetect:  "detect",
	KindSend:    "send",
	KindDeliver: "deliver",
	KindDrop:    "drop",
	KindPropose: "propose",
	KindReject:  "reject",
	KindReset:   "reset",
	KindDecide:  "decide",
}

// String returns the lowercase event-kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one observable step. Fields beyond Kind/Node are populated as
// relevant for the kind (see the Kind constants).
type Event struct {
	Seq   int          // global sequence number, unique and monotonically increasing
	Time  int64        // virtual time (simulator) or wall-clock nanos (livenet)
	Kind  Kind         //
	Node  graph.NodeID // acting node
	Peer  graph.NodeID // counterpart (send/deliver/detect)
	View  string       // region key (propose/reject/reset/decide/send/deliver)
	Round int          // protocol round for send/deliver
	Value string       // decision value (decide)
	Bytes int          // payload wire size (send/deliver)
}

// String renders a compact single-line form used by the CLI narrative mode.
func (e Event) String() string {
	s := fmt.Sprintf("t=%-6d #%-5d %-7s %s", e.Time, e.Seq, e.Kind, e.Node)
	if e.Peer != "" {
		s += fmt.Sprintf(" peer=%s", e.Peer)
	}
	if e.View != "" {
		s += fmt.Sprintf(" view={%s}", e.View)
	}
	if e.Kind == KindSend || e.Kind == KindDeliver {
		s += fmt.Sprintf(" r=%d b=%d", e.Round, e.Bytes)
	}
	if e.Value != "" {
		s += fmt.Sprintf(" val=%q", e.Value)
	}
	return s
}

// Log is an append-only, concurrency-safe event log. The zero value is
// ready to use. It is the live runtime's trace: its node goroutines append
// concurrently, hence the mutex. (The simulator emits in one total order
// and keeps its own trace without one.)
//
// Beyond buffering, a Log can stream: observers registered with Observe
// receive every event in sequence order as it is appended, and
// DiscardEvents turns off buffering entirely so that arbitrarily long runs
// need constant memory — running Stats and observers keep working.
type Log struct {
	mu        sync.Mutex
	events    []Event
	nextSeq   int
	discard   bool
	observers []func(Event)
	acc       Accumulator
}

// Observe registers fn to receive every subsequently appended event,
// stamped with its sequence number, in order. Observers run under the log
// lock so that concurrent appenders cannot reorder deliveries: keep them
// fast, and never append to the same log from inside one.
func (l *Log) Observe(fn func(Event)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observers = append(l.observers, fn)
}

// DiscardEvents stops the log from retaining events: Events returns nil
// afterwards, while Append, Stats, Len and observers keep working. Use it
// to run huge scenarios in constant memory.
func (l *Log) DiscardEvents() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.discard = true
	l.events = nil
}

// Append stamps e with the next sequence number, stores it (unless
// discarding), folds it into the running Stats and streams it to the
// observers.
func (l *Log) Append(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.nextSeq
	l.nextSeq++
	l.acc.Add(e)
	if !l.discard {
		l.events = append(l.events, e)
	}
	for _, fn := range l.observers {
		fn(e)
	}
	return e
}

// Events returns a snapshot copy of the log (nil after DiscardEvents).
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.discard {
		return nil
	}
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Stats returns the running aggregate over everything appended so far. It
// equals Summarize(l.Events()) but also works on a discarding log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acc.Stats()
}

// Stats aggregates a finished log into the counters the experiment tables
// report.
type Stats struct {
	Messages     int // KindSend count
	Deliveries   int // KindDeliver count
	Drops        int // messages discarded because the target crashed
	Bytes        int // sum of sent payload sizes
	Crashes      int
	Detections   int
	Proposals    int
	Rejections   int
	Resets       int
	Decisions    int
	Participants int   // distinct correct nodes that sent or received ≥1 message
	MaxRound     int   // highest protocol round observed
	EndTime      int64 // time of the last event (of any Kind above)
	DecideTime   int64 // time of the last decision (0 if none)
}

// Merge folds the Stats of a disjoint part of the same run into s: counters
// add and maxima take the larger side. Participants is left alone — it
// counts distinct nodes, which do not add; whoever merges owns the set.
func (s *Stats) Merge(other Stats) {
	s.Messages += other.Messages
	s.Deliveries += other.Deliveries
	s.Drops += other.Drops
	s.Bytes += other.Bytes
	s.Crashes += other.Crashes
	s.Detections += other.Detections
	s.Proposals += other.Proposals
	s.Rejections += other.Rejections
	s.Resets += other.Resets
	s.Decisions += other.Decisions
	s.MaxRound = max(s.MaxRound, other.MaxRound)
	s.EndTime = max(s.EndTime, other.EndTime)
	s.DecideTime = max(s.DecideTime, other.DecideTime)
}

// Accumulator folds a stream of events into Stats one event at a time,
// using memory proportional to the number of distinct nodes seen rather
// than the length of the trace. The zero value is ready to use.
//
// It is the definition of Stats: Summarize is one Accumulator over a
// finished log, and the live runtime's Log keeps one running. The
// simulator does not go through it — its kernel counts the same fields by
// dense node index where the events happen, so that Stats costs nothing
// per event and exists when no event is built — and is tested against it,
// field by field (sim.TestShardedStatsMatchSummarize).
type Accumulator struct {
	s            Stats
	crashed      map[graph.NodeID]bool
	participants map[graph.NodeID]bool
}

// Add folds one event into the aggregate.
func (a *Accumulator) Add(e Event) {
	if a.crashed == nil {
		a.crashed = make(map[graph.NodeID]bool)
		a.participants = make(map[graph.NodeID]bool)
	}
	if e.Time > a.s.EndTime {
		a.s.EndTime = e.Time
	}
	switch e.Kind {
	case KindSend:
		a.s.Messages++
		a.s.Bytes += e.Bytes
		a.participants[e.Node] = true
	case KindDeliver:
		a.s.Deliveries++
		a.participants[e.Node] = true
	case KindDrop:
		a.s.Drops++
	case KindCrash:
		a.s.Crashes++
		a.crashed[e.Node] = true
	case KindDetect:
		a.s.Detections++
	case KindPropose:
		a.s.Proposals++
	case KindReject:
		a.s.Rejections++
	case KindReset:
		a.s.Resets++
	case KindDecide:
		a.s.Decisions++
		if e.Time > a.s.DecideTime {
			a.s.DecideTime = e.Time
		}
	}
	if e.Round > a.s.MaxRound {
		a.s.MaxRound = e.Round
	}
}

// Merge folds other's aggregate into a: counters add, maxima take the
// larger side, node sets union. Sharded accumulators — one per goroutine,
// each folding a disjoint slice of the stream — merge into the same Stats
// a single sequential fold would produce, because every Stats field is a
// commutative reduction.
func (a *Accumulator) Merge(other *Accumulator) {
	if a.crashed == nil {
		a.crashed = make(map[graph.NodeID]bool)
		a.participants = make(map[graph.NodeID]bool)
	}
	a.s.Merge(other.s)
	for n := range other.crashed {
		a.crashed[n] = true
	}
	for n := range other.participants {
		a.participants[n] = true
	}
}

// Stats returns the aggregate so far. Participants counts distinct nodes
// that sent or received and are not (yet) crashed, so call it after the
// stream is complete for the quiescence-time value.
func (a *Accumulator) Stats() Stats {
	s := a.s
	for n := range a.participants {
		if !a.crashed[n] {
			s.Participants++
		}
	}
	return s
}

// Summarize computes Stats over a finished event log.
func Summarize(events []Event) Stats {
	var a Accumulator
	for _, e := range events {
		a.Add(e)
	}
	return a.Stats()
}

// Decisions extracts the KindDecide events in log order.
func Decisions(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == KindDecide {
			out = append(out, e)
		}
	}
	return out
}
