package check_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	cliffedge "cliffedge"
	"cliffedge/internal/check"
	"cliffedge/internal/gen"
	"cliffedge/internal/graph"
	"cliffedge/internal/trace"
)

// traceOp is one corruption FuzzOnlineMatchesReference may apply to a valid
// trace, on top of the property mutators: each exercises a path of the
// checker's index bookkeeping that valid traces never reach.
type traceOp func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event

// pick returns a uniformly drawn node of g.
func pick(rng *rand.Rand, g *graph.Graph) graph.NodeID { return g.ID(int32(rng.Intn(g.Len()))) }

// insertAt inserts evs at position i of a copy of events.
func insertAt(events []trace.Event, i int, evs ...trace.Event) []trace.Event {
	out := append(cloneEvents(events[:i]), evs...)
	return append(out, events[i:]...)
}

var traceOps = []traceOp{
	// Node IDs outside the topology: a crashed ghost, messages to and from
	// ghosts, and a ghost proposing and deciding a view with a ghost member.
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		ghost := graph.NodeID(fmt.Sprintf("ghost%d", rng.Intn(3)))
		real := pick(rng, g)
		view := string(real) + "," + string(ghost)
		if rng.Intn(2) == 0 {
			view = string(ghost)
		}
		return append(cloneEvents(events),
			trace.Event{Time: 90, Kind: trace.KindCrash, Node: ghost},
			trace.Event{Time: 91, Kind: trace.KindSend, Node: ghost, Peer: real, Bytes: 4},
			trace.Event{Time: 91, Kind: trace.KindSend, Node: real, Peer: "elsewhere", Bytes: 4},
			trace.Event{Time: 92, Kind: trace.KindDeliver, Node: real, Peer: ghost, Bytes: 4},
			trace.Event{Time: 93, Kind: trace.KindPropose, Node: "elsewhere", View: view},
			trace.Event{Time: 94, Kind: trace.KindDecide, Node: "elsewhere", View: view, Value: "v"},
			trace.Event{Time: 95, Kind: trace.KindDecide, Node: real, View: view, Value: "w"})
	},
	// Sends from a crashed node (a crash from the trace, or a fresh one).
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		var dead graph.NodeID
		for _, e := range events {
			if e.Kind == trace.KindCrash && rng.Intn(2) == 0 {
				dead = e.Node
			}
		}
		out := cloneEvents(events)
		if dead == "" {
			dead = pick(rng, g)
			out = append(out, trace.Event{Time: 80, Kind: trace.KindCrash, Node: dead})
		}
		to := pick(rng, g)
		for k := 0; k < 1+rng.Intn(3); k++ {
			out = append(out, trace.Event{Time: 81, Kind: trace.KindSend, Node: dead, Peer: to, Bytes: 3},
				trace.Event{Time: 82, Kind: trace.KindDeliver, Node: to, Peer: dead, Bytes: 3})
		}
		return out
	},
	// More than ten CD3 breaches spread over several channels.
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		out := cloneEvents(events)
		channels := 3 + rng.Intn(4)
		for c := 0; c < channels; c++ {
			from, to := pick(rng, g), pick(rng, g)
			for k := 0; k < 2+rng.Intn(5); k++ {
				e := trace.Event{Time: 70, Kind: trace.KindSend, Node: from, Peer: to, Bytes: 2}
				d := trace.Event{Time: 71, Kind: trace.KindDeliver, Node: to, Peer: from, Bytes: 2}
				i := rng.Intn(len(out) + 1)
				out = insertAt(out, i, e, d)
			}
		}
		return out
	},
	// Duplicated deliveries.
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		var idx []int
		for i, e := range events {
			if e.Kind == trace.KindDeliver {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return nil
		}
		i := idx[rng.Intn(len(idx))]
		return insertAt(events, i+1, events[i])
	},
	// Extra isolated crashes: more domains, clusters and undecided borders.
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		out := cloneEvents(events)
		for k := 0; k < 1+rng.Intn(4); k++ {
			out = insertAt(out, rng.Intn(len(out)+1),
				trace.Event{Time: int64(rng.Intn(60)), Kind: trace.KindCrash, Node: pick(rng, g)})
		}
		return out
	},
	// Drop one event.
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		if len(events) == 0 {
			return nil
		}
		i := rng.Intn(len(events))
		return append(cloneEvents(events[:i]), events[i+1:]...)
	},
	// Repeat one event later in the trace.
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		if len(events) == 0 {
			return nil
		}
		i := rng.Intn(len(events))
		return insertAt(events, i+rng.Intn(len(events)-i)+1, events[i])
	},
	// A proposer rejects its own view, before or after proposing it.
	func(rng *rand.Rand, g *graph.Graph, events []trace.Event) []trace.Event {
		for i, e := range events {
			if e.Kind == trace.KindPropose && rng.Intn(3) == 0 {
				rej := trace.Event{Time: e.Time, Kind: trace.KindReject, Node: e.Node, View: e.View}
				return insertAt(events, i+rng.Intn(2), rej)
			}
		}
		return nil
	},
}

// FuzzOnlineMatchesReference feeds the dense Online checker and the
// string-keyed reference the same trace — a valid simulator trace, then a
// sequence of property mutators and corruptions the ops bytes choose — and
// requires both verdicts to be identical, violation by violation. A
// non-zero prefix selects the reuse mode: the Online checker first
// observes another corrupted trace, on the topology the prefix seed
// draws, and reports on it, then is Reset to the case's topology; its
// verdicts must still equal a fresh reference's.
func FuzzOnlineMatchesReference(f *testing.F) {
	nops := len(mutators) + len(traceOps)
	for k := 0; k < nops; k++ {
		f.Add(int64(9000+k), []byte{byte(k)}, int64(0))
		f.Add(int64(9000+k), []byte{byte(k)}, int64(8000+k))
	}
	f.Add(int64(7001), []byte{}, int64(0))
	f.Add(int64(7002), []byte{byte(len(mutators)), byte(len(mutators) + 2), byte(len(mutators) + 4)}, int64(0))
	f.Add(int64(7003), []byte{byte(len(mutators) + 4), byte(len(mutators) + 4), byte(len(mutators) + 1), 9}, int64(0))
	f.Add(int64(7003), []byte{byte(len(mutators) + 4), byte(len(mutators) + 4), byte(len(mutators) + 1), 9}, int64(7004))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, prefix int64) {
		if len(ops) > 8 {
			ops = ops[:8]
		}
		g, events := corruptedTrace(t, seed, ops)
		online, ref := check.NewOnline(g), check.NewReferenceChecker(g)
		if prefix != 0 {
			pg, pevents := corruptedTrace(t, prefix, ops)
			online.Reset(pg)
			for _, e := range pevents {
				online.Observe(e)
			}
			online.Report()
			online.Reset(g)
		}
		for _, e := range events {
			online.Observe(e)
			ref.Observe(e)
		}
		if got, want := online.Report(), ref.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Report differs from the reference:\n%+v\nreference:\n%+v", got, want)
		}
		if got, want := online.SafetyReport(), ref.SafetyReport(); !reflect.DeepEqual(got, want) {
			t.Fatalf("SafetyReport differs from the reference:\n%+v\nreference:\n%+v", got, want)
		}
	})
}

// corruptedTrace is the valid simulator trace of seed with the mutators
// and corruptions ops chooses applied in order.
func corruptedTrace(t *testing.T, seed int64, ops []byte) (*graph.Graph, []trace.Event) {
	nops := len(mutators) + len(traceOps)
	g, events := genValidTrace(t, seed)
	for k, op := range ops {
		rng := rand.New(rand.NewSource(seed ^ int64(k+1)<<40 ^ int64(op)))
		var out []trace.Event
		if i := int(op) % nops; i < len(mutators) {
			out = mutators[i].fn(g, events)
		} else {
			out = traceOps[i-len(mutators)](rng, g, events)
		}
		if out != nil {
			events = out
		}
	}
	return g, events
}

// BenchmarkOnlineObserve replays the events of every checked cell of the
// mixed grid (every topology family × every regime with a checker, seeds 1
// and 2) through fresh checkers: the per-event cost behind a sweep's
// check.ns_per_event.
func BenchmarkOnlineObserve(b *testing.B) {
	type capture struct {
		g      *graph.Graph
		events []trace.Event
	}
	var caps []capture
	total := 0
	for _, fam := range gen.Families() {
		for _, reg := range gen.Regimes() {
			if reg.Check == gen.CheckNone {
				continue
			}
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g, _ := fam.New(rng)
				waves := reg.Plan(rng, g)
				opts := []cliffedge.Option{cliffedge.WithSeed(seed)}
				if m := reg.NetModel(rng); m != nil {
					opts = append(opts, cliffedge.WithNetModel(m))
				}
				cl, err := cliffedge.New(g, opts...)
				if err != nil {
					b.Fatal(err)
				}
				plan := cliffedge.NewPlan()
				for _, w := range waves {
					plan.At(w.Time).Crash(w.Crash...).Mark(w.Mark...)
				}
				res, err := cl.Run(context.Background(), plan)
				if err != nil {
					b.Fatal(err)
				}
				caps = append(caps, capture{g, res.Events()})
				total += len(res.Events())
			}
		}
	}
	for b.Loop() {
		for _, c := range caps {
			o := check.NewOnline(c.g)
			for _, e := range c.events {
				o.Observe(e)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/event")
}
