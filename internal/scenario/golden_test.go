package scenario

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// traceHash folds every field of every event into one FNV-1a word. Any
// change to event content, ordering or sequence numbering changes the hash.
func traceHash(events []trace.Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, e := range events {
		word(int64(e.Seq))
		word(e.Time)
		word(int64(e.Kind))
		str(string(e.Node))
		str(string(e.Peer))
		str(e.View)
		word(int64(e.Round))
		str(e.Value)
		word(int64(e.Bytes))
	}
	return h.Sum64()
}

// goldenCascadeHash pins the full trace of a seeded 32×32 grid cascade
// (8×8 centre block, 8-node cascade). The kernel's determinism contract is
// that the same (graph, plan, seed) produces this exact trace bit for bit:
// every latency draw, event ordering and every event field — at any shard
// count and any GOMAXPROCS. Any refactor of graph/region/core/sim must
// keep this hash unchanged.
//
// Regenerated once for the sharded kernel (previously 0x8cb18a11398433ae,
// itself the one disclosed regeneration of trace.FormatVersion 1). Three
// coupled changes moved every timestamp: (a) latency draws are now pure
// hashes keyed on (seed, from, to, sendTime, nonce) — the netem scheme —
// instead of consuming a shared rand.Rand in global draw order; (b) the
// event total order became (time, source, per-source seq) so keys are
// assigned where events are born rather than by a global counter; (c)
// in-run failure-detector subscriptions became kernel events processed in
// the monitored node's shard, one lookahead tick after issue. Event kinds,
// per-channel FIFO order, decisions and decided views were verified
// unchanged in spirit by the CD1–CD7 checker and the sim-vs-live
// differential suite; the hash below is identical for shards ∈ {1, 2, 8,
// auto} (asserted here) and for GOMAXPROCS ∈ {1, 4} (asserted in CI).
const goldenCascadeHash uint64 = 0x1458779c191f24a2

func TestGoldenCascadeTraceHash(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"sequential", 1},
		{"shards-2", 2},
		{"shards-8", 8},
		{"auto", sim.AutoShards},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := CascadeSpec(32, 32, 8, 8, 30, 7)
			spec.Shards = tc.shards
			res, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Events) == 0 {
				t.Fatal("empty trace")
			}
			if got := traceHash(res.Events); got != goldenCascadeHash {
				t.Fatalf("trace hash changed: got %#x, want %#x (kernel determinism broken)",
					got, goldenCascadeHash)
			}
		})
	}
}

// TestShardedMultiDomainTraceHash exercises the auto partition on a
// scenario it does NOT collapse to one shard: two disjoint crashed blocks
// in opposite corners of a grid form two domain groups, so AutoShards
// actually runs two lanes. Every shard setting must agree with the
// sequential trace bit for bit.
func TestShardedMultiDomainTraceHash(t *testing.T) {
	build := func() Spec {
		g := graph.Grid(16, 16)
		var crashes []sim.CrashAt
		for r := 2; r < 5; r++ {
			for c := 2; c < 5; c++ {
				crashes = append(crashes, sim.CrashAt{Time: 10, Node: graph.GridID(r, c)})
			}
		}
		for r := 11; r < 14; r++ {
			for c := 11; c < 14; c++ {
				crashes = append(crashes, sim.CrashAt{Time: 25, Node: graph.GridID(r, c)})
			}
		}
		return Spec{Name: "two-domains", Graph: g, Crashes: crashes, Seed: 11}
	}
	ref, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	want := traceHash(ref.Events)
	for _, shards := range []int{sim.AutoShards, 2, 4, 16} {
		spec := build()
		spec.Shards = shards
		res, err := spec.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := traceHash(res.Events); got != want {
			t.Fatalf("shards=%d: trace hash %#x differs from sequential %#x", shards, got, want)
		}
	}
}

// TestZeroDelayTraceHash pins runs that schedule events into the tick
// being processed: zero trigger delays (latencies are at least one tick).
// The event queue must order such a push among that tick's unpopped
// events, at any shard count. The hash is that of the 4-ary heap queue the
// calendar queue replaced.
func TestZeroDelayTraceHash(t *testing.T) {
	g := graph.Grid(8, 8)
	crashes := []sim.CrashAt{{Time: 10, Node: graph.GridID(2, 2)}, {Time: 10, Node: graph.GridID(2, 3)},
		{Time: 40, Node: graph.GridID(5, 5)}}
	firstPropose := func(e trace.Event) bool { return e.Kind == trace.KindPropose }
	for _, tc := range []struct {
		name string
		spec Spec
		want uint64
	}{
		{"trigger-delay-0", Spec{Triggers: []sim.Trigger{
			{Node: graph.GridID(2, 1), Delay: 0, When: firstPropose},
			{Node: graph.GridID(4, 5), Delay: 0, When: func(e trace.Event) bool {
				return e.Kind == trace.KindDetect && e.Peer == graph.GridID(5, 5)
			}},
		}}, 0xe97e394404e612c},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 8} {
				spec := tc.spec
				spec.Graph, spec.Seed, spec.Crashes, spec.Shards = g, 5, crashes, shards
				res, err := spec.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Decisions) == 0 {
					t.Fatal("no decisions")
				}
				if got := traceHash(res.Events); got != tc.want {
					t.Errorf("shards=%d: trace hash %#x, want %#x (%d events)", shards, got, tc.want, len(res.Events))
				}
			}
		})
	}
}
