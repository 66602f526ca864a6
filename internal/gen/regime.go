package gen

import (
	"fmt"
	"math/rand"

	"cliffedge/internal/graph"
	"cliffedge/internal/netem"
	"cliffedge/internal/region"
)

// WaveSpacing separates quiescence-intended waves in simulator virtual
// time. With latency bands of at most 10 ticks and campaign topologies of
// ≤ ~150 nodes, a convergence cascade spans thousands of ticks at most;
// 2^20 ticks is quiescence for every plan this package generates.
const WaveSpacing = 1 << 20

// Wave is one injection round of a generated fault plan: the nodes in
// Crash fail together at virtual time Time, and the nodes in Mark have
// their stable predicate (§5) start holding — they stay alive but
// withdraw from coordination (the live engine reinterprets the times as
// ordering, not duration).
type Wave struct {
	Time  int64
	Crash []graph.NodeID
	Mark  []graph.NodeID
}

// CheckLevel selects which subset of the CD1–CD7 property checker soundly
// applies to a regime's runs.
type CheckLevel uint8

const (
	// CheckFull: all seven properties plus the sanity/lemma-2 conditions —
	// regimes that keep the paper's reliable-channel, crash-fault model.
	CheckFull CheckLevel = iota
	// CheckSafety: CD1–CD3, CD5, CD6 and the streamed checks only —
	// regimes that genuinely lose or duplicate messages, where stalls
	// (CD4, CD7) and ledger imbalance are measurements, not violations.
	CheckSafety
	// CheckNone: no property checking — regimes built on predicate marks,
	// whose decided views name alive nodes and so cannot be judged against
	// crash ground truth.
	CheckNone
)

// Regime is a named distribution over fault plans for a given topology.
//
// Racing reports whether the regime's waves are meant to land while
// agreement is still in flight. For non-racing regimes the wave times are
// WaveSpacing apart, which the simulator honours as quiescence and the
// live engine implements with idle barriers; for racing regimes the live
// engine must inject waves without waiting for quiescence.
//
// Check names the property subset that is sound for the regime's runs
// (see CheckLevel).
type Regime struct {
	Name   string
	Racing bool
	Check  CheckLevel
	plan   func(rng *rand.Rand, g *graph.Graph) []Wave
	net    func(rng *rand.Rand) *netem.Model
}

// NetModel draws the regime's network-condition model, or nil for regimes
// that run on perfect channels. Call it after Plan with the same rng —
// the draw order (topology, waves, network model) is part of the
// workload's deterministic identity.
func (r Regime) NetModel(rng *rand.Rand) *netem.Model {
	if r.net == nil {
		return nil
	}
	return r.net(rng)
}

// Plan draws one fault plan for g. The returned waves always satisfy
// Validate; at least one wave is produced for every topology the
// registered families generate (a single connected blob always survives
// generation). Regime-specific guarantees:
//
//   - "quiescent": waves WaveSpacing apart and, cumulatively, no alive
//     node ever borders two distinct faulty domains — the
//     interleaving-independent family where final decisions are a
//     scheduler-free function of the plan (the differential harness's
//     regime; see the argument in differential_test.go).
//   - "overlapping": waves WaveSpacing apart, but later waves grow out of
//     or abut earlier domains, so alive nodes may border several domains
//     and ranking races arbitrate which instance wins. Safe (CD1–CD7) but
//     not pointwise reproducible across schedulers.
//   - "midprotocol": waves a few dozen ticks apart, racing into in-flight
//     agreement — the paper's Fig. 1(b) cascade shape, generalised.
//   - "flaky": quiescent-shaped waves (disjoint borders, half the blobs
//     adversarial max-border) over a degraded network in retransmission
//     mode (see NetModel) — reliability intact, timing degraded.
//   - "lossy": the same fault shape over raw-loss channels with
//     duplication — the reliable-channel assumption deliberately broken;
//     only the safety checker subset applies (Check = CheckSafety).
//   - "upgrade": a connected zone marked (§5) in rolling sequential
//     waves, optionally with a churn crash blob in between; predicate
//     decisions cannot be checked against crash ground truth
//     (Check = CheckNone).
func (r Regime) Plan(rng *rand.Rand, g *graph.Graph) []Wave {
	return r.plan(rng, g)
}

var regimes = []Regime{
	{Name: "quiescent", plan: quiescentPlan},
	{Name: "overlapping", plan: overlappingPlan},
	{Name: "midprotocol", Racing: true, plan: midProtocolPlan},
	// flaky runs quiescent-shaped waves (disjoint domain borders, so
	// outcomes stay interleaving-independent) over a lossy, jittery,
	// spiky network in retransmission mode: reliability is preserved by
	// the link layer, timing degrades — the approach to the cliff with
	// the proof assumptions still intact. Half its blobs grow with the
	// adversarial max-border shape.
	{Name: "flaky", Check: CheckFull, plan: flakyPlan, net: flakyNet},
	// lossy is the same fault shape over genuinely unreliable channels
	// (raw loss + duplication): the reliable-channel assumption is
	// deliberately broken so campaigns can measure stall and decision
	// rates. Only the safety property subset applies.
	{Name: "lossy", Check: CheckSafety, plan: flakyPlan, net: lossyNet},
	// upgrade models a rolling upgrade under churn: a connected zone is
	// marked (§5 stable predicate) in small sequential waves — nodes
	// drain one after another, as a rolling restart does — while an
	// unrelated crash blob may land between the mark waves. Predicate
	// decisions cannot be judged against crash ground truth, so no
	// checker applies.
	{Name: "upgrade", Check: CheckNone, plan: upgradePlan},
}

// Regimes returns every registered fault regime, in registry order.
func Regimes() []Regime {
	out := make([]Regime, len(regimes))
	copy(out, regimes)
	return out
}

// RegimeByName resolves a regime by its registry name.
func RegimeByName(name string) (Regime, bool) {
	for _, r := range regimes {
		if r.Name == name {
			return r, true
		}
	}
	return Regime{}, false
}

// RegimeNames lists the registry names, in order.
func RegimeNames() []string {
	out := make([]string, len(regimes))
	for i, r := range regimes {
		out[i] = r.Name
	}
	return out
}

// minSurvivors is the survivor backbone every generated plan preserves, so
// borders and deciders always exist.
const minSurvivors = 3

// DisjointDomainBorders reports whether no alive node borders two distinct
// faulty domains of the crashed set — the condition under which final
// decisions are interleaving-independent. A node bordering two domains can
// accept only one of them, and which instance completes first depends on
// detection timing; the paper's arbitration keeps such runs safe, but not
// pointwise reproducible across schedulers.
func DisjointDomainBorders(g *graph.Graph, crashed graph.Bitset) bool {
	seen := graph.NewBitset(g.Len())
	for _, dom := range region.Domains(g, crashed) {
		for _, b := range dom.BorderIndices() {
			if seen.Has(b) {
				return false
			}
			seen.Set(b)
		}
	}
	return true
}

// idsOf converts blob indices to NodeIDs.
func idsOf(g *graph.Graph, blob []int32) []graph.NodeID {
	ids := make([]graph.NodeID, len(blob))
	for k, i := range blob {
		ids[k] = g.ID(i)
	}
	return ids
}

// quiescentPlan draws 1–3 quiescence-separated crash waves subject to the
// disjoint-borders condition. At least one wave always survives
// generation: a single connected blob forms one domain, which satisfies
// the condition trivially.
func quiescentPlan(rng *rand.Rand, g *graph.Graph) []Wave {
	crashed := graph.NewBitset(g.Len())
	var waves []Wave
	nWaves := 1 + rng.Intn(3)
	for w := 0; w < nWaves; w++ {
		for attempt := 0; attempt < 25; attempt++ {
			blob := Blob(rng, g, crashed, 1+rng.Intn(5))
			if len(blob) == 0 {
				break
			}
			trial := crashed.Clone()
			for _, i := range blob {
				trial.Set(i)
			}
			if g.Len()-trial.Count() < minSurvivors {
				continue
			}
			if !DisjointDomainBorders(g, trial) {
				continue
			}
			crashed = trial
			waves = append(waves, Wave{Time: int64(len(waves)+1) * WaveSpacing, Crash: idsOf(g, blob)})
			break
		}
	}
	return waves
}

// overlappingPlan draws 2–3 quiescence-separated waves where each later
// wave grows out of (or abuts) the existing crashed set, deliberately
// producing alive nodes that border several faulty domains and grown
// regions whose earlier deciders sit on the new border.
func overlappingPlan(rng *rand.Rand, g *graph.Graph) []Wave {
	crashed := graph.NewBitset(g.Len())
	var waves []Wave
	nWaves := 2 + rng.Intn(2)
	for w := 0; w < nWaves; w++ {
		var blob []int32
		if w == 0 {
			blob = Blob(rng, g, crashed, 1+rng.Intn(4))
		} else {
			blob = AdjacentBlob(rng, g, crashed, 1+rng.Intn(4))
		}
		if len(blob) == 0 {
			break
		}
		if g.Len()-(crashed.Count()+len(blob)) < minSurvivors {
			break
		}
		for _, i := range blob {
			crashed.Set(i)
		}
		waves = append(waves, Wave{Time: int64(len(waves)+1) * WaveSpacing, Crash: idsOf(g, blob)})
	}
	return waves
}

// flakyPlan draws 1–3 quiescence-separated crash waves subject to the
// disjoint-borders condition — the same interleaving-independent family
// as quiescentPlan, so outcomes stay a scheduler-free function of the
// plan even with degraded timing — but grows half of its blobs with the
// adversarial max-border shape (the worst crash of its size, since cost
// tracks the border). Shared by the "flaky" (retransmission) and "lossy"
// (raw loss) regimes; only the network model differs.
func flakyPlan(rng *rand.Rand, g *graph.Graph) []Wave {
	crashed := graph.NewBitset(g.Len())
	var waves []Wave
	nWaves := 1 + rng.Intn(3)
	for w := 0; w < nWaves; w++ {
		for attempt := 0; attempt < 25; attempt++ {
			size := 1 + rng.Intn(5)
			var blob []int32
			if rng.Intn(2) == 0 {
				blob = MaxBorderBlob(rng, g, crashed, size)
			} else {
				blob = Blob(rng, g, crashed, size)
			}
			if len(blob) == 0 {
				break
			}
			trial := crashed.Clone()
			for _, i := range blob {
				trial.Set(i)
			}
			if g.Len()-trial.Count() < minSurvivors {
				continue
			}
			if !DisjointDomainBorders(g, trial) {
				continue
			}
			crashed = trial
			waves = append(waves, Wave{Time: int64(len(waves)+1) * WaveSpacing, Crash: idsOf(g, blob)})
			break
		}
	}
	return waves
}

// flakyNet draws the "flaky" regime's network model: retransmission mode
// over a loss probability of 5–30%, a jitter band and occasional
// heavy-tail spikes. Delays stay ≪ WaveSpacing, so quiescence separation
// holds and the checker's full property set applies.
func flakyNet(rng *rand.Rand) *netem.Model {
	return &netem.Model{
		Mode: netem.Retransmit,
		Default: netem.Profile{
			Loss:      0.05 + 0.25*rng.Float64(),
			JitterMax: 5 + int64(rng.Intn(16)),
			SpikeProb: 0.02 + 0.05*rng.Float64(),
			SpikeMin:  50,
			SpikeMax:  150 + int64(rng.Intn(151)),
		},
	}
}

// lossyNet draws the "lossy" regime's network model: raw loss of 0.2–3%
// with jitter and 1–3% duplication — genuinely broken channels, measured
// (stall and decision rates) rather than checked for liveness. The band
// is deliberately mild: a |B|-round agreement needs hundreds of
// consecutive deliveries, so even these rates produce a rich mix of
// completed, partially decided and fully stalled runs across a sweep
// (≥ 10% loss stalls essentially everything — a cliff, not a gradient).
func lossyNet(rng *rand.Rand) *netem.Model {
	return &netem.Model{
		Mode: netem.RawLoss,
		Default: netem.Profile{
			Loss:      0.002 + 0.028*rng.Float64(),
			JitterMax: 5 + int64(rng.Intn(16)),
			DupProb:   0.01 + 0.02*rng.Float64(),
		},
	}
}

// upgradePlan draws a rolling upgrade under churn: a connected zone of
// 3–8 nodes is marked (§5 stable predicate) in sequential waves of 1–2
// nodes — the rolling-restart shape — and, half of the time, a small
// unrelated crash blob lands between the mark waves. Mark waves are
// chunks of the connected zone in growth order, so each chunk touches the
// previously marked prefix, but a chunk on its own need not induce a
// connected subgraph (Validate requires connectivity of crash blobs
// only).
func upgradePlan(rng *rand.Rand, g *graph.Graph) []Wave {
	out := graph.NewBitset(g.Len()) // marked ∪ crashed: nodes out of play
	zoneMax := 3 + rng.Intn(6)
	if room := g.Len() - minSurvivors - 3; zoneMax > room {
		// Keep room for the churn blob and the survivor backbone.
		zoneMax = room
	}
	if zoneMax < 1 {
		return nil
	}
	zone := Blob(rng, g, out, zoneMax)
	if len(zone) == 0 {
		return nil
	}
	for _, i := range zone {
		out.Set(i)
	}
	var waves []Wave
	t := int64(WaveSpacing)
	for i := 0; i < len(zone); {
		k := 1 + rng.Intn(2)
		if i+k > len(zone) {
			k = len(zone) - i
		}
		waves = append(waves, Wave{Time: t, Mark: idsOf(g, zone[i:i+k])})
		i += k
		t += WaveSpacing
	}
	if rng.Intn(2) == 0 {
		if blob := Blob(rng, g, out, 1+rng.Intn(3)); len(blob) > 0 &&
			g.Len()-(out.Count()+len(blob)) >= minSurvivors {
			// Insert the churn wave between two mark waves, renumbering
			// the times to stay strictly increasing.
			pos := rng.Intn(len(waves))
			churn := Wave{Crash: idsOf(g, blob)}
			waves = append(waves[:pos], append([]Wave{churn}, waves[pos:]...)...)
			for w := range waves {
				waves[w].Time = int64(w+1) * WaveSpacing
			}
		}
	}
	return waves
}

// midProtocolPlan draws 2–4 waves landing a few dozen ticks apart, so
// later crashes race into agreements still in flight (detection alone
// takes up to 10 ticks, a |B|-round instance far longer).
func midProtocolPlan(rng *rand.Rand, g *graph.Graph) []Wave {
	crashed := graph.NewBitset(g.Len())
	var waves []Wave
	nWaves := 2 + rng.Intn(3)
	t := int64(10)
	for w := 0; w < nWaves; w++ {
		var blob []int32
		if w == 0 || rng.Intn(2) == 0 {
			blob = Blob(rng, g, crashed, 1+rng.Intn(4))
		} else {
			blob = AdjacentBlob(rng, g, crashed, 1+rng.Intn(4))
		}
		if len(blob) == 0 {
			break
		}
		if g.Len()-(crashed.Count()+len(blob)) < minSurvivors {
			break
		}
		for _, i := range blob {
			crashed.Set(i)
		}
		waves = append(waves, Wave{Time: t, Crash: idsOf(g, blob)})
		t += 10 + int64(rng.Intn(51))
	}
	return waves
}

// Validate checks the structural invariants every generated plan
// guarantees: at least one wave, strictly increasing non-negative times,
// non-empty waves of existing nodes, no node crashed or marked twice (nor
// both), each crash wave connected in the subgraph it induces (mark waves
// are rolling chunks of a connected zone and need not be), and at least
// minSurvivors nodes neither crashed nor marked.
func Validate(g *graph.Graph, waves []Wave) error {
	if len(waves) == 0 {
		return fmt.Errorf("gen: empty plan")
	}
	faulted := make(map[graph.NodeID]bool) // crashed ∪ marked
	prev := int64(-1)
	for w, wave := range waves {
		if wave.Time < 0 || wave.Time <= prev {
			return fmt.Errorf("gen: wave %d at t=%d not after t=%d", w, wave.Time, prev)
		}
		prev = wave.Time
		if len(wave.Crash) == 0 && len(wave.Mark) == 0 {
			return fmt.Errorf("gen: wave %d is empty", w)
		}
		set := make(map[graph.NodeID]bool, len(wave.Crash))
		for _, n := range wave.Crash {
			if !g.Has(n) {
				return fmt.Errorf("gen: wave %d crashes unknown node %q", w, n)
			}
			if faulted[n] {
				return fmt.Errorf("gen: node %q faulted twice (wave %d)", n, w)
			}
			faulted[n] = true
			set[n] = true
		}
		if len(set) > 0 && !g.IsConnectedSubset(set) {
			return fmt.Errorf("gen: wave %d is not a connected blob: %v", w, wave.Crash)
		}
		for _, n := range wave.Mark {
			if !g.Has(n) {
				return fmt.Errorf("gen: wave %d marks unknown node %q", w, n)
			}
			if faulted[n] {
				return fmt.Errorf("gen: node %q faulted twice (wave %d)", n, w)
			}
			faulted[n] = true
		}
	}
	if g.Len()-len(faulted) < minSurvivors {
		return fmt.Errorf("gen: only %d survivors, want ≥ %d", g.Len()-len(faulted), minSurvivors)
	}
	return nil
}
