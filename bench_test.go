package cliffedge

// One benchmark per experiment id of cmd/cliffedge-bench (F1a–F3, T1–T7,
// MC), plus kernel and protocol micro-benchmarks. The experiment
// benchmarks run a reduced variant per iteration and report domain
// metrics (msgs/op, decisions/op) alongside time and allocations; the
// full sweeps are produced by cmd/cliffedge-bench.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cliffedge/internal/baseline"
	"cliffedge/internal/core"
	"cliffedge/internal/graph"
	"cliffedge/internal/livenet"
	"cliffedge/internal/mck"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
	"cliffedge/internal/scenario"
	"cliffedge/internal/sim"
)

func runSpec(b *testing.B, spec scenario.Spec) *sim.Result {
	b.Helper()
	res, err := spec.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFig1aDisjointRegions(b *testing.B) {
	b.ReportAllocs()
	msgs := 0
	for i := 0; i < b.N; i++ {
		res := runSpec(b, scenario.Fig1a(int64(i)))
		msgs += res.Stats.Messages
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

func BenchmarkFig1bCascade(b *testing.B) {
	b.ReportAllocs()
	rejections := 0
	for i := 0; i < b.N; i++ {
		res := runSpec(b, scenario.Fig1b(int64(i)))
		rejections += res.Stats.Rejections
	}
	b.ReportMetric(float64(rejections)/float64(b.N), "rejections/op")
}

func BenchmarkFig2AdjacentDomains(b *testing.B) {
	b.ReportAllocs()
	decisions := 0
	for i := 0; i < b.N; i++ {
		res := runSpec(b, scenario.Fig2(int64(i)))
		decisions += res.Stats.Decisions
	}
	b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
}

func BenchmarkFig3OverlapStress(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(10, 10)
	for i := 0; i < b.N; i++ {
		runSpec(b, scenario.Randomized(g, int64(i), 3, 6, 10, 80))
	}
}

// BenchmarkT1LocalityCliff measures the cliff-edge protocol on a fixed
// 3×3 block while the system grows: msgs/op must stay flat across
// sub-benchmarks.
func BenchmarkT1LocalityCliff(b *testing.B) {
	b.ReportAllocs()
	for _, side := range []int{10, 20, 40, 80} {
		b.Run(fmt.Sprintf("N=%d", side*side), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Grid(side, side)
			crashes := scenario.CrashAll(graph.CenterBlock(side, side, 3), 10)
			b.ResetTimer()
			msgs := 0
			for i := 0; i < b.N; i++ {
				res := runSpec(b, scenario.Spec{
					Name: "t1", Graph: g, Crashes: crashes, Seed: int64(i),
				})
				msgs += res.Stats.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkT1LocalityGlobal is the whole-system baseline on the same
// workload: msgs/op grows ~quadratically with N.
func BenchmarkT1LocalityGlobal(b *testing.B) {
	b.ReportAllocs()
	for _, side := range []int{10, 15, 20} {
		b.Run(fmt.Sprintf("N=%d", side*side), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Grid(side, side)
			var crashes []sim.CrashAt
			for _, n := range graph.CenterBlock(side, side, 3) {
				crashes = append(crashes, sim.CrashAt{Time: 10, Node: n})
			}
			b.ResetTimer()
			msgs := 0
			for i := 0; i < b.N; i++ {
				r, err := sim.NewRunner(sim.Config{
					Graph: g, Factory: baseline.GlobalFactory(g),
					Seed: int64(i), Crashes: crashes,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Stats.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

func BenchmarkT2RegionCost(b *testing.B) {
	b.ReportAllocs()
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			msgs := 0
			for i := 0; i < b.N; i++ {
				spec := scenario.GridBlockSpec(16, 16, k, int64(i))
				res := runSpec(b, spec)
				msgs += res.Stats.Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

func BenchmarkT3Latency(b *testing.B) {
	b.ReportAllocs()
	for _, lat := range []int64{2, 50} {
		b.Run(fmt.Sprintf("net=%d", lat), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Grid(12, 12)
			var decide int64
			for i := 0; i < b.N; i++ {
				res := runSpec(b, scenario.Spec{
					Name: "t3", Graph: g,
					Crashes:    scenario.CrashAll(graph.CenterBlock(12, 12, 3), 10),
					Seed:       int64(i),
					NetLatency: sim.Uniform{Min: 1, Max: lat},
				})
				decide += res.Stats.DecideTime
			}
			b.ReportMetric(float64(decide)/float64(b.N), "t_decide/op")
		})
	}
}

func BenchmarkT4ArbitrationAblation(b *testing.B) {
	b.ReportAllocs()
	for _, arb := range []bool{true, false} {
		b.Run(fmt.Sprintf("arbitration=%v", arb), func(b *testing.B) {
			b.ReportAllocs()
			decisions := 0
			for i := 0; i < b.N; i++ {
				spec := scenario.Fig2(int64(i))
				spec.DisableArbitration = !arb
				res := runSpec(b, spec)
				decisions += res.Stats.Decisions
			}
			b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
		})
	}
}

func BenchmarkT5CascadeDepth(b *testing.B) {
	b.ReportAllocs()
	for _, depth := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			resets := 0
			for i := 0; i < b.N; i++ {
				res := runSpec(b, scenario.CascadeSpec(9, 9, 2, depth, 30, int64(i)))
				resets += res.Stats.Resets
			}
			b.ReportMetric(float64(resets)/float64(b.N), "resets/op")
		})
	}
}

func BenchmarkT6Predicate(b *testing.B) {
	b.ReportAllocs()
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			rows, err := scenario.ExperimentT6(12, []int{k}, 1)
			if err != nil {
				b.Fatal(err)
			}
			_ = rows
			b.ResetTimer()
			msgs := 0
			for i := 0; i < b.N; i++ {
				rows, err := scenario.ExperimentT6(12, []int{k}, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				msgs += rows[0].Msgs
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

func BenchmarkT7RoundsAblation(b *testing.B) {
	b.ReportAllocs()
	for _, literal := range []bool{false, true} {
		b.Run(fmt.Sprintf("literal=%v", literal), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build()
			for i := 0; i < b.N; i++ {
				lit := literal
				runSpec(b, scenario.Spec{
					Name:  "t7",
					Graph: g,
					Crashes: []sim.CrashAt{{Time: 5, Node: "b"},
						{Time: 18 + int64(i%14), Node: "c"}},
					Seed: int64(i),
					Factory: func(id graph.NodeID) proto.Automaton {
						return core.New(core.Config{ID: id, Graph: g, LiteralPaperRounds: lit})
					},
				})
			}
		})
	}
}

func BenchmarkMCExhaustive(b *testing.B) {
	b.ReportAllocs()
	g := graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build()
	states := 0
	for i := 0; i < b.N; i++ {
		out, err := mck.Explore(mck.Config{Graph: g, Crashes: []graph.NodeID{"b", "c"}})
		if err != nil {
			b.Fatal(err)
		}
		if !out.Ok() {
			b.Fatal("violations")
		}
		states += out.StatesExplored
	}
	b.ReportMetric(float64(states)/float64(b.N), "states/op")
}

// BenchmarkKernelCascade64 is the headline kernel benchmark: a 64×64 grid
// loses its centre 16×16 block at once and then eight more nodes one by
// one while agreement is underway. The trace is discarded (streaming
// posture), so time and allocations measure the simulator kernel and the
// protocol automata, not trace retention. TestKernelCascade64Counts pins
// its messages, bytes, decisions and end time.
func BenchmarkKernelCascade64(b *testing.B) {
	benchCascade(b, 64, 1)
}

// BenchmarkKernelCascade96 is the kernel_cascade96 workload of
// BENCHMARK.json as a Go benchmark, so it can be profiled with
// -cpuprofile/-memprofile (docs/KERNEL_PROFILE.md): a 96×96 grid losing
// its centre 24×24 block plus eight stragglers, border vectors of ~96
// slots.
func BenchmarkKernelCascade96(b *testing.B) {
	benchCascade(b, 96, 1)
}

// BenchmarkKernelCascade128 doubles the headline kernel workload in each
// grid dimension — a 128×128 grid losing its centre 32×32 block plus
// eight stragglers — to expose superlinear growth (borders, and with
// them vectors and waiting bitsets, scale with the crash perimeter)
// that the 64×64 point alone cannot show.
func BenchmarkKernelCascade128(b *testing.B) {
	benchCascade(b, 128, 1)
}

// BenchmarkCampaignMixed is one worker running the grid of the
// sweep_mixed workload in-process — every topology family × every regime,
// sim engine, seeds 1–100, 3600 jobs — so the per-job path (gen, runner
// set-up, kernel, online checker, aggregation) can be profiled without the
// service around it (docs/KERNEL_PROFILE.md, "Where a mixed sweep spends
// its time").
func BenchmarkCampaignMixed(b *testing.B) {
	camp, err := NewCampaign(WithSeedRange(1, 100), WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := camp.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(camp.Jobs())), "us/job")
}

// BenchmarkKernelCascade64Sharded is the headline workload on the
// sharded kernel, striped over 8 shards. The cascade is one connected
// crashed region — auto mode would collapse it back to sequential — so
// explicit striping is what exercises the conservative time windows
// here: same trace, same stats, this benchmark measures only what the
// windowed parallelism buys (or costs) on a single-domain workload.
func BenchmarkKernelCascade64Sharded(b *testing.B) {
	benchCascade(b, 64, 8)
}

// BenchmarkKernelCascade128Sharded is the doubled workload on the
// sharded kernel, the same trace as BenchmarkKernelCascade128 executed
// over 8 shards.
func BenchmarkKernelCascade128Sharded(b *testing.B) {
	benchCascade(b, 128, 8)
}

// cascadeRunner builds a fresh simulator run of spec over core automata
// with the trace discarded — the posture of every kernel measurement.
func cascadeRunner(tb testing.TB, spec scenario.Spec, shards int) *sim.Runner {
	tb.Helper()
	r, err := sim.NewRunner(sim.Config{
		Graph:         spec.Graph,
		Factory:       scenario.CoreFactory(spec.Graph),
		Seed:          spec.Seed,
		Crashes:       spec.Crashes,
		Shards:        shards,
		DiscardEvents: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// benchCascade runs the dim×dim cascade (centre dim/4 block, then eight
// stragglers 25 ticks apart) with the trace discarded, and reports the
// per-message unit cost next to ns/op: msgs/op grows 5.7× from 64² to
// 128², so only ns/msg shows whether a message got dearer.
func benchCascade(b *testing.B, dim, shards int) {
	b.ReportAllocs()
	spec := scenario.CascadeSpec(dim, dim, dim/4, 8, 25, 1)
	b.ResetTimer()
	msgs := 0
	for i := 0; i < b.N; i++ {
		res, err := cascadeRunner(b, spec, shards).Run()
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Stats.Messages
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}

// BenchmarkLiveCascade32 is the live counterpart of BenchmarkKernelCascade64:
// a 32×32 grid (one goroutine per node) loses its centre 8×8 block at
// once, then four more nodes race into the in-flight agreement with no
// quiescence in between, mirroring the cascade shape. The trace is
// discarded, so time and allocations measure the runtime's envelope
// queues, registry and per-slot stats accumulators — the measure-first
// baseline for the livenet allocation-profile ROADMAP item (ring-buffer
// mailboxes).
func BenchmarkLiveCascade32(b *testing.B) {
	b.ReportAllocs()
	spec := scenario.CascadeSpec(32, 32, 8, 4, 25, 1)
	// Group the spec's timed crashes into waves by crash time; the live
	// runtime replays the waves in order without idle barriers.
	var waves [][]graph.NodeID
	var times []int64
	for _, c := range spec.Crashes {
		if len(times) == 0 || c.Time != times[len(times)-1] {
			times = append(times, c.Time)
			waves = append(waves, nil)
		}
		waves[len(waves)-1] = append(waves[len(waves)-1], c.Node)
	}
	b.ResetTimer()
	msgs := 0
	for i := 0; i < b.N; i++ {
		rt := livenet.NewRuntime(spec.Graph, scenario.CoreFactory(spec.Graph),
			livenet.Options{DiscardEvents: true})
		if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
			rt.Stop()
			b.Fatal(err)
		}
		for _, w := range waves {
			rt.CrashAll(w...)
		}
		if err := rt.WaitIdleContext(context.Background(), time.Minute); err != nil {
			rt.Stop()
			b.Fatal(err)
		}
		rt.Stop()
		msgs += rt.Result().Stats.Messages
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// --- micro-benchmarks -------------------------------------------------

// BenchmarkCoreOnMessage measures one delivery through the automaton's
// merge + guard pipeline, outside the kernel, at a short and a long border.
// The view is the hub of a star, its border the |B| leaves; the receiver
// has proposed it and waits in round 1, and the message is the round-1
// multicast of another leaf, taken from that node's own Effects (so it
// carries the sender-built masks and sender slot, as every message inside
// a run does).
// After the first iteration the delivery brings nothing new — the common
// case in a run, where a node hears each round's vector from |B| peers —
// which leaves the per-delivery work itself: view lookup, the checks, the
// word-wise merge and one pass of the guards. ns/op at |B| = 96 over
// |B| = 8 is how much of that still grows with the border.
func BenchmarkCoreOnMessage(b *testing.B) {
	for _, border := range []int{8, 96} {
		b.Run(fmt.Sprintf("B=%d", border), func(b *testing.B) {
			b.ReportAllocs()
			tb := graph.NewBuilder()
			for j := 0; j < border; j++ {
				tb.AddEdge("hub", graph.NodeID(fmt.Sprintf("leaf%03d", j)))
			}
			g := tb.Build()
			leaves := region.New(g, []graph.NodeID{"hub"}).Border()
			newNode := core.Factory(core.Config{Graph: g})
			sender, receiver := newNode(leaves[1]), newNode(leaves[0])
			sender.Start()
			receiver.Start()
			sent := sender.OnCrash("hub").Sends
			if len(sent) != 1 {
				b.Fatalf("sender multicast %d times, want once", len(sent))
			}
			msg := sent[0].Payload
			receiver.OnCrash("hub")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				receiver.OnMessage(leaves[1], msg)
			}
		})
	}
}

// BenchmarkCoreFullInstance measures a complete single-crash agreement
// (4 participants, 4 uniform rounds) through the simulator.
func BenchmarkCoreFullInstance(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(8, 8)
	crashes := []sim.CrashAt{{Time: 10, Node: graph.GridID(3, 3)}}
	for i := 0; i < b.N; i++ {
		r, err := sim.NewRunner(sim.Config{Graph: g,
			Factory: scenario.CoreFactory(g), Seed: int64(i), Crashes: crashes})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegionRanking(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(16, 16)
	r1 := region.New(g, graph.CenterBlock(16, 16, 3))
	r2 := region.New(g, graph.GridBlock(1, 1, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region.Less(&r1, &r2)
	}
}

func BenchmarkRegionConstruction(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(32, 32)
	block := graph.CenterBlock(32, 32, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region.New(g, block)
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(32, 32)
	crashed := graph.ToSet(graph.CenterBlock(32, 32, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents(crashed)
	}
}

func BenchmarkNodeClone(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(8, 8)
	n := core.New(core.Config{ID: graph.GridID(2, 3), Graph: g})
	n.Start()
	n.OnCrash(graph.GridID(3, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Clone()
	}
}

func BenchmarkGraphGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graph.Grid(32, 32)
	}
}
