// Package netem is the deterministic link-condition model shared by both
// engines: it adjudicates every point-to-point transmission (from, to,
// sendTime) into a Verdict — drop it, delay it, duplicate it — from
// per-link profiles composed out of primitives: loss probability, jitter
// bands, heavy-tailed latency spikes, scheduled link flaps with heal
// times, and zone degradation keyed off node-set membership.
//
// The paper's system model (§2.2) assumes asynchronous *reliable* FIFO
// channels; netem models the approach to that cliff. Its two modes differ
// in which side of the abstraction they keep:
//
//   - Retransmit (the default) models a link layer doing bounded resends:
//     every loss draw and every flap outage is converted into extra delay
//     (backoffs, waiting for the link to heal), so each message is still
//     delivered exactly once and per-sender FIFO still holds — the
//     reliable-channel abstraction stays intact while its *timing*
//     degrades. All of the paper's properties remain in force.
//   - RawLoss delivers what a degraded network really does: messages are
//     dropped and occasionally duplicated. This deliberately breaks the
//     model the protocol was proved under — runs may stall — and exists
//     so campaigns can *quantify* graceful degradation (stall rates,
//     decision rates) instead of hard-failing. Liveness-flavoured checks
//     (CD4, CD7, message conservation) do not apply to such runs; safety
//     checks still do (see check.Online.SafetyReport).
//
// # Determinism
//
// A bound model is a pure function: the verdict for (from, to, sendTime)
// is computed by a counter-based splitmix64 generator keyed on the binding
// seed and the transmission coordinates, never from a shared mutable RNG
// stream. Two consequences the engines rely on:
//
//   - The simulator's traces stay bit-identical for a (seed, profile)
//     pair across runs and GOMAXPROCS settings — adjudication order is
//     irrelevant because each verdict depends only on its own key.
//   - The live runtime may adjudicate from many goroutines at once with
//     no locks and no order sensitivity; identical queries always get
//     identical verdicts.
//
// Adjudication performs no allocation and no map lookups (rule endpoint
// sets are bitsets over dense graph indices), so it may sit on the
// simulator kernel's hot path.
package netem

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"cliffedge/internal/graph"
)

// Mode selects what happens to transmissions the model decides to disturb.
type Mode uint8

const (
	// Retransmit converts losses and outages into delay through bounded
	// link-layer resends: delivery stays exactly-once and FIFO (the
	// paper's channel abstraction holds; its timing does not).
	Retransmit Mode = iota
	// RawLoss drops (and occasionally duplicates) messages for real,
	// breaking the reliable-channel abstraction so that campaigns can
	// measure stall and decision rates under genuine loss.
	RawLoss
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Retransmit:
		return "retransmit"
	case RawLoss:
		return "rawloss"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Profile composes the per-link condition primitives. The zero Profile is
// a perfect link. All delays are in engine time units (virtual ticks for
// the simulator, logical event ticks for the live runtime).
type Profile struct {
	// Loss is the per-attempt drop probability in [0, 1].
	Loss float64
	// JitterMin/JitterMax add a uniform extra delay in [JitterMin,
	// JitterMax] to every delivered message.
	JitterMin, JitterMax int64
	// SpikeProb adds, with this probability, a heavy-tail latency spike
	// uniform in [SpikeMin, SpikeMax] — the WAN outlier band.
	SpikeProb          float64
	SpikeMin, SpikeMax int64
	// DupProb duplicates a delivered message with this probability.
	// Duplication is a RawLoss-mode phenomenon: in Retransmit mode the
	// link layer suppresses duplicates and this field is ignored.
	DupProb float64
}

// IsZero reports whether the profile is the perfect link.
func (p Profile) IsZero() bool { return p == Profile{} }

// Validate checks the profile's primitives for well-formedness: all
// probabilities in [0, 1], all delay bands non-negative with Max ≥ Min.
func (p Profile) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"Loss", p.Loss}, {"SpikeProb", p.SpikeProb}, {"DupProb", p.DupProb}} {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v {
			return fmt.Errorf("netem: %s = %v outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.JitterMin < 0 || p.JitterMax < p.JitterMin || p.JitterMax > MaxTick {
		return fmt.Errorf("netem: jitter band [%d, %d] malformed", p.JitterMin, p.JitterMax)
	}
	if p.SpikeMin < 0 || p.SpikeMax < p.SpikeMin || p.SpikeMax > MaxTick {
		return fmt.Errorf("netem: spike band [%d, %d] malformed", p.SpikeMin, p.SpikeMax)
	}
	return nil
}

// Flap is a scheduled link outage: the link is down during
// [Start + k·Period, Start + k·Period + Down) for occurrences k = 0, 1, …
// With Period == 0 the outage happens once; with Period > Down it repeats,
// Count bounding the number of occurrences (0 = unbounded). Every outage
// heals: Period == 0 implies a single finite outage and Period > Down
// guarantees up-time each cycle, which is what lets Retransmit mode
// compute a finite heal-and-deliver delay.
type Flap struct {
	Start  int64
	Down   int64
	Period int64
	Count  int
}

// Validate checks the flap schedule for well-formedness. Start, Down and
// Period are each bounded by 2^48 ticks, which keeps every heal-time
// computation overflow-free (heal ≤ sendTime + Down).
func (f Flap) Validate() error {
	if f.Start < 0 || f.Start > MaxTick {
		return fmt.Errorf("netem: flap start %d outside [0, 2^48]", f.Start)
	}
	if f.Down <= 0 || f.Down > MaxTick {
		return fmt.Errorf("netem: flap down-time %d outside (0, 2^48]", f.Down)
	}
	if f.Period != 0 && f.Period <= f.Down {
		return fmt.Errorf("netem: flap period %d must exceed down-time %d (the link would never heal)",
			f.Period, f.Down)
	}
	if f.Period > MaxTick {
		return fmt.Errorf("netem: flap period %d exceeds 2^48", f.Period)
	}
	if f.Count < 0 {
		return fmt.Errorf("netem: flap count %d negative", f.Count)
	}
	return nil
}

// Outage reports whether the link is down at time t and, if so, when it
// heals (the first instant the link is up again).
func (f Flap) Outage(t int64) (down bool, healAt int64) {
	if t < f.Start {
		return false, 0
	}
	if f.Period == 0 {
		if t < f.Start+f.Down {
			return true, f.Start + f.Down
		}
		return false, 0
	}
	k := (t - f.Start) / f.Period
	if f.Count > 0 && k >= int64(f.Count) {
		return false, 0
	}
	if off := (t - f.Start) % f.Period; off < f.Down {
		return true, f.Start + k*f.Period + f.Down
	}
	return false, 0
}

// Rule applies link conditions to a selected set of links during an
// active time window. A transmission from → to matches when one endpoint
// is in A and the other in B, in either orientation (link conditions are
// symmetric); an empty endpoint set selects every node, so Rule{A: zone}
// degrades every link touching the zone — the zone-degradation primitive.
//
// During adjudication the *first* matching active rule with a non-zero
// Profile supplies the link's conditions (later profiles and the model
// default are shadowed), while flap outages are *unioned* over every
// matching active rule — a flap-only rule (zero Profile) therefore
// composes transparently with profile rules and the default.
type Rule struct {
	A, B    []graph.NodeID
	Profile Profile
	Flap    *Flap
	// From/Until bound the rule's active window [From, Until) in engine
	// time; Until == 0 means the rule never expires.
	From, Until int64
}

// Model is the declarative description of network conditions: a mode, a
// default profile and an ordered rule list. Models are pure data — build
// one, Bind it to a topology and seed to get the executable Net.
type Model struct {
	Mode Mode
	// MaxResend bounds the resends Retransmit mode charges for before the
	// link layer is assumed to get the message through; 0 means the
	// default of 5. Ignored in RawLoss mode.
	MaxResend int
	// RTO is the per-resend backoff in engine ticks (linearly increasing
	// per attempt); 0 means the default of 8. Ignored in RawLoss mode.
	RTO int64
	// Default is the profile of links no rule matches.
	Default Profile
	// Rules are evaluated in order; see Rule for the matching semantics.
	Rules []Rule
}

// MaxTick bounds every time-valued input of a run: here the jitter and
// spike bands, RTO and flap start/down/period, and in the simulator the
// scheduled crash and injection times, trigger delays and latency bands.
// 2^48 ticks is astronomically beyond any run, and the bound makes the
// delay arithmetic overflow-free: the largest possible ExtraDelay is
// heal-wait + Σ backoffs + jitter + spike < 2^48 + 2^48·64²+ 2·2^48 < 2^62.
const MaxTick = int64(1) << 48

const (
	defaultMaxResend = 5
	defaultRTO       = 8
	// maxResendCap bounds MaxResend so the backoff sum stays bounded.
	maxResendCap = 64
)

// Verdict is the adjudication of one transmission: drop it, delay its
// delivery by ExtraDelay ticks, and/or deliver a duplicate copy. In
// Retransmit mode Drop and Duplicate are always false — losses surface
// as ExtraDelay only.
type Verdict struct {
	Drop       bool
	ExtraDelay int64
	Duplicate  bool
}

// Stats are the link-layer counters of one bound model, accumulated
// across every adjudication of a run.
type Stats struct {
	// Sent counts adjudicated transmissions.
	Sent int64
	// Delivered counts delivered copies (duplicates count twice).
	Delivered int64
	// Dropped counts transmissions lost for good (RawLoss mode only).
	Dropped int64
	// Retransmits counts link-layer resends charged by Retransmit mode
	// (loss draws converted into backoff delay, plus one per outage wait).
	Retransmits int64
	// Duplicates counts extra copies delivered (RawLoss mode only).
	Duplicates int64
	// DelayTicks sums the extra delay imposed across all deliveries.
	DelayTicks int64
}

// boundRule is a Rule compiled against a topology: endpoint sets as
// bitsets over dense indices, so matching allocates nothing.
type boundRule struct {
	a, b        graph.Bitset // nil = any node
	prof        Profile
	hasProf     bool
	flap        Flap
	hasFlap     bool
	from, until int64
}

func (r *boundRule) active(t int64) bool {
	return t >= r.from && (r.until == 0 || t < r.until)
}

func (r *boundRule) match(from, to int32) bool {
	aFrom := r.a == nil || r.a.Has(from)
	bTo := r.b == nil || r.b.Has(to)
	if aFrom && bTo {
		return true
	}
	aTo := r.a == nil || r.a.Has(to)
	bFrom := r.b == nil || r.b.Has(from)
	return aTo && bFrom
}

// Net is a Model bound to a topology and a seed: the executable, purely
// functional adjudicator plus its run counters. A Net belongs to one run;
// Adjudicate is safe for concurrent use.
type Net struct {
	mode      Mode
	maxResend int
	rto       int64
	seed      uint64
	def       Profile
	rules     []boundRule

	sent, delivered, dropped atomic.Int64
	retransmits, dups, ticks atomic.Int64
}

// Bind compiles the model against topology g under the given seed,
// validating every profile, flap and endpoint. The resulting Net is
// specific to one run: its counters start at zero.
func (m *Model) Bind(g *graph.Graph, seed int64) (*Net, error) {
	if m.Mode != Retransmit && m.Mode != RawLoss {
		return nil, fmt.Errorf("netem: unknown mode %d", m.Mode)
	}
	if m.MaxResend < 0 || m.MaxResend > maxResendCap {
		return nil, fmt.Errorf("netem: MaxResend %d outside [0, %d]", m.MaxResend, maxResendCap)
	}
	if m.RTO < 0 || m.RTO > MaxTick {
		return nil, fmt.Errorf("netem: RTO %d outside [0, 2^48]", m.RTO)
	}
	if err := m.Default.Validate(); err != nil {
		return nil, fmt.Errorf("netem: default profile: %w", err)
	}
	n := &Net{
		mode:      m.Mode,
		maxResend: m.MaxResend,
		rto:       m.RTO,
		// Seed mixing: distinct run seeds give distinct verdict streams
		// even for seed 0.
		seed: splitmix(uint64(seed) ^ 0x6E65_7465_6D5E_ED00), // "netem^ED"
		def:  m.Default,
	}
	if n.maxResend == 0 {
		n.maxResend = defaultMaxResend
	}
	if n.rto == 0 {
		n.rto = defaultRTO
	}
	for i, r := range m.Rules {
		if err := r.Profile.Validate(); err != nil {
			return nil, fmt.Errorf("netem: rule %d: %w", i, err)
		}
		if r.From < 0 || (r.Until != 0 && r.Until <= r.From) {
			return nil, fmt.Errorf("netem: rule %d: window [%d, %d) malformed", i, r.From, r.Until)
		}
		br := boundRule{prof: r.Profile, hasProf: !r.Profile.IsZero(), from: r.From, until: r.Until}
		if r.Flap != nil {
			if err := r.Flap.Validate(); err != nil {
				return nil, fmt.Errorf("netem: rule %d: %w", i, err)
			}
			br.flap, br.hasFlap = *r.Flap, true
		}
		var err error
		if br.a, err = bindSet(g, r.A); err != nil {
			return nil, fmt.Errorf("netem: rule %d: %w", i, err)
		}
		if br.b, err = bindSet(g, r.B); err != nil {
			return nil, fmt.Errorf("netem: rule %d: %w", i, err)
		}
		n.rules = append(n.rules, br)
	}
	return n, nil
}

func bindSet(g *graph.Graph, ids []graph.NodeID) (graph.Bitset, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	set := graph.NewBitset(g.Len())
	for _, id := range ids {
		i := g.Index(id)
		if i < 0 {
			return nil, fmt.Errorf("rule references unknown node %q", id)
		}
		set.Set(i)
	}
	return set, nil
}

// Mode returns the bound model's mode.
func (n *Net) Mode() Mode { return n.mode }

// Unreliable reports whether the bound model may actually lose or
// duplicate messages (RawLoss mode) — the condition under which only the
// safety subset of the CD1–CD7 checker applies. Nil-safe: an absent model
// is a perfect, reliable network.
func (n *Net) Unreliable() bool { return n != nil && n.mode == RawLoss }

// Stats snapshots the run counters.
func (n *Net) Stats() Stats {
	return Stats{
		Sent:        n.sent.Load(),
		Delivered:   n.delivered.Load(),
		Dropped:     n.dropped.Load(),
		Retransmits: n.retransmits.Load(),
		Duplicates:  n.dups.Load(),
		DelayTicks:  n.ticks.Load(),
	}
}

// Adjudicate decides the fate of the transmission from → to entering the
// link at sendTime. It is a pure function of (binding seed, from, to,
// sendTime, nonce) — identical queries always return identical verdicts —
// and is safe for concurrent use. ExtraDelay is always ≥ 0.
//
// The nonce disambiguates transmissions that share a (from, to, sendTime)
// coordinate so their draws stay independent: the simulator passes a
// per-adjudication counter (several sends on one channel can fall in the
// same virtual tick, and correlated fate-sharing would bias every loss
// statistic), while the live runtime passes 0 (its logical clock already
// gives every send a unique time). The nonce feeds only the draw stream,
// never rule windows or flap schedules.
func (n *Net) Adjudicate(from, to int32, sendTime int64, nonce uint64) Verdict {
	n.sent.Add(1)

	// Resolve conditions: profile from the first matching active rule
	// with a non-zero profile (else the default), outages unioned over
	// every matching active rule.
	prof, profSet := n.def, false
	down, healAt := false, int64(0)
	for i := range n.rules {
		r := &n.rules[i]
		if !r.active(sendTime) || !r.match(from, to) {
			continue
		}
		if r.hasProf && !profSet {
			prof, profSet = r.prof, true
		}
		if r.hasFlap {
			if d, h := r.flap.Outage(sendTime); d {
				down = true
				if h > healAt {
					healAt = h
				}
			}
		}
	}

	rng := rngFor(n.seed, from, to, sendTime, nonce)

	if n.mode == RawLoss {
		if down || (prof.Loss > 0 && rng.float() < prof.Loss) {
			n.dropped.Add(1)
			return Verdict{Drop: true}
		}
		delay := drawDelay(&rng, prof)
		v := Verdict{ExtraDelay: delay}
		if prof.DupProb > 0 && rng.float() < prof.DupProb {
			v.Duplicate = true
			n.dups.Add(1)
			n.delivered.Add(1)
		}
		n.delivered.Add(1)
		n.ticks.Add(delay)
		return v
	}

	// Retransmit mode: losses and outages become bounded delay; the
	// message is always delivered exactly once.
	var delay int64
	var resends int64
	if down {
		// The link layer retries until the link heals; the wait (plus one
		// resend on heal) is charged as delay.
		delay += healAt - sendTime
		resends++
	}
	if prof.Loss > 0 {
		for r := 0; r < n.maxResend; r++ {
			if rng.float() >= prof.Loss {
				break
			}
			resends++
			delay += n.rto * (int64(r) + 1) // linearly growing backoff
		}
	}
	delay += drawDelay(&rng, prof)
	n.retransmits.Add(resends)
	n.delivered.Add(1)
	n.ticks.Add(delay)
	return Verdict{ExtraDelay: delay}
}

// drawDelay draws the delivered attempt's jitter and heavy-tail spike.
// Draw order (jitter, spike) is fixed — it is part of the deterministic
// contract.
func drawDelay(rng *prng, prof Profile) int64 {
	delay := prof.JitterMin
	if prof.JitterMax > prof.JitterMin {
		delay += rng.intn(prof.JitterMax - prof.JitterMin + 1)
	}
	if prof.SpikeProb > 0 && rng.float() < prof.SpikeProb {
		delay += prof.SpikeMin
		if prof.SpikeMax > prof.SpikeMin {
			delay += rng.intn(prof.SpikeMax - prof.SpikeMin + 1)
		}
	}
	return delay
}

// prng is a counter-based splitmix64 stream keyed per transmission.
type prng uint64

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rngFor keys the stream on the transmission coordinates. The mixing
// rounds decorrelate (from, to, time, nonce) so that adjacent times,
// node pairs and same-tick bursts do not produce correlated draws.
func rngFor(seed uint64, from, to int32, t int64, nonce uint64) prng {
	x := seed
	x = splitmix(x ^ uint64(uint32(from)))
	x = splitmix(x ^ uint64(uint32(to)))
	x = splitmix(x ^ uint64(t))
	x = splitmix(x ^ nonce)
	return prng(x)
}

// next advances the stream.
func (p *prng) next() uint64 {
	*p += 0x9E3779B97F4A7C15
	return splitmix(uint64(*p))
}

// float draws uniformly from [0, 1).
func (p *prng) float() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// intn draws uniformly from [0, n). n must be positive.
func (p *prng) intn(n int64) int64 {
	// Multiply-shift reduction; the modulo bias over 64 bits is far below
	// anything a simulation could observe.
	hi, _ := bits.Mul64(p.next(), uint64(n))
	return int64(hi)
}
