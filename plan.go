package cliffedge

import (
	"fmt"
	"sort"

	"cliffedge/internal/netem"
	"cliffedge/internal/predicate"
	"cliffedge/internal/sim"
)

// Plan describes everything that happens to a cluster during a run: timed
// crashes, event-conditioned triggers and stable-predicate marks, composed
// through one builder.
//
//	plan := cliffedge.NewPlan().
//		At(10).Crash(victims...).
//		OnEvent(func(e cliffedge.Event) bool {
//			return e.Kind == cliffedge.EventPropose && e.Node == "madrid"
//		}, 1).Crash("paris")
//
// At and OnEvent position a cursor — the moment subsequent Crash and Mark
// calls attach to — so several faults can share one cursor. The zero
// cursor is virtual time 0. Plans are pure data: build once, run on any
// engine (the live engine orders timed steps into quiescence-separated
// waves and does not support OnEvent).
type Plan struct {
	steps []planStep
	// netSteps are the plan's network-condition clauses (FlapLink,
	// Degrade), lowered into netem rules and prepended to the cluster's
	// NetModel at run time.
	netSteps []netem.Rule
	// netOnEvent records a netem clause attached under an OnEvent cursor,
	// which has no time window to compile into; validate rejects it.
	netOnEvent bool

	// Cursor state for the builder.
	at    int64
	when  func(Event) bool
	delay int64
}

type planStep struct {
	at    int64            // virtual time of a timed step (when == nil)
	when  func(Event) bool // condition of a triggered step
	delay int64            // ticks after the condition first matches
	mark  bool             // mark instead of crash
	nodes []NodeID
}

// NewPlan returns an empty fault plan with the cursor at virtual time 0.
func NewPlan() *Plan { return &Plan{} }

// At moves the cursor to virtual time t, clearing any OnEvent condition.
func (p *Plan) At(t int64) *Plan {
	p.at, p.when, p.delay = t, nil, 0
	return p
}

// OnEvent moves the cursor to "delay ticks after the first trace event
// matching when". Conditioned steps fire at most once each and are
// supported by the simulator engine only.
func (p *Plan) OnEvent(when func(Event) bool, delay int64) *Plan {
	p.when, p.delay = when, delay
	return p
}

// Crash schedules nodes to fail at the cursor.
func (p *Plan) Crash(nodes ...NodeID) *Plan { return p.add(false, nodes) }

// Mark schedules nodes' stable predicate to start holding at the cursor —
// the node is "marked": saturated, draining, quarantined, … This is the
// paper's §5 extension, agreement on connected regions of nodes sharing a
// stable predicate, "crashed" being the special case the main protocol
// handles: marked nodes stay alive but withdraw from coordination, and
// detection is cooperative (marked nodes gossip the marked set within the
// region and announce it one hop out), so no failure detector is needed.
// The borders agree on (region, value) with the same guarantees and
// locality as the crash protocol. A plan containing marks runs every node
// as a predicate automaton and cannot be combined with WithChecker, whose
// properties are specified against crash ground truth. Under the Live
// engine the nodes marked at one time are marked as one atomic wave, as
// the nodes crashed at one time are: no marked node's gossip reaches
// another before that node's own mark.
func (p *Plan) Mark(nodes ...NodeID) *Plan { return p.add(true, nodes) }

// FlapLink schedules an outage of the link between a and b (both
// directions): the link goes down at the cursor time and heals `down`
// ticks later. While down, transmissions on the link are dropped in
// raw-loss mode and delayed past the heal time in retransmission mode.
// FlapLink requires a timed (At) cursor.
func (p *Plan) FlapLink(a, b NodeID, down int64) *Plan {
	if p.when != nil {
		p.netOnEvent = true
		return p
	}
	p.netSteps = append(p.netSteps, netem.Rule{
		A:    []NodeID{a},
		B:    []NodeID{b},
		Flap: &netem.Flap{Start: p.at, Down: down},
	})
	return p
}

// Degrade applies prof to every link touching one of the given nodes
// (the zone-degradation clause), from the cursor time to the end of the
// run. With no nodes the whole network degrades. Plan clauses take
// precedence over the rules of the cluster's WithNetModel model; among
// themselves, earlier clauses win. Degrade requires a timed (At) cursor.
func (p *Plan) Degrade(prof NetProfile, nodes ...NodeID) *Plan {
	if p.when != nil {
		p.netOnEvent = true
		return p
	}
	p.netSteps = append(p.netSteps, netem.Rule{
		A:       append([]NodeID(nil), nodes...),
		Profile: prof,
		From:    p.at,
	})
	return p
}

// netemRules returns the plan's compiled network-condition clauses.
func (p *Plan) netemRules() []netem.Rule {
	if len(p.netSteps) == 0 {
		return nil
	}
	return append([]netem.Rule(nil), p.netSteps...)
}

func (p *Plan) add(mark bool, nodes []NodeID) *Plan {
	if len(nodes) == 0 {
		return p
	}
	p.steps = append(p.steps, planStep{
		at: p.at, when: p.when, delay: p.delay, mark: mark,
		nodes: append([]NodeID(nil), nodes...),
	})
	return p
}

// hasMarks reports whether any step marks nodes, which switches the whole
// cluster to the predicate automaton.
func (p *Plan) hasMarks() bool {
	for _, s := range p.steps {
		if s.mark {
			return true
		}
	}
	return false
}

// validate checks every referenced node against the topology and rejects
// netem clauses attached under an OnEvent cursor (they compile into time
// windows, which an event condition does not provide).
func (p *Plan) validate(t *Topology) error {
	if p.netOnEvent {
		return fmt.Errorf("cliffedge: FlapLink/Degrade require a timed At cursor, not OnEvent")
	}
	for _, s := range p.steps {
		for _, n := range s.nodes {
			if !t.Has(n) {
				return fmt.Errorf("cliffedge: plan references unknown node %q", n)
			}
		}
	}
	for _, r := range p.netSteps {
		for _, n := range append(append([]NodeID(nil), r.A...), r.B...) {
			if !t.Has(n) {
				return fmt.Errorf("cliffedge: plan network clause references unknown node %q", n)
			}
		}
	}
	return nil
}

// compileSim lowers the plan onto the simulator's schedule types,
// preserving step insertion order (which fixes kernel sequence numbers and
// hence the bit-exact trace).
func (p *Plan) compileSim() (crashes []sim.CrashAt, triggers []sim.Trigger, injections []sim.InjectAt) {
	for _, s := range p.steps {
		for _, n := range s.nodes {
			switch {
			case s.when == nil && !s.mark:
				crashes = append(crashes, sim.CrashAt{Time: s.at, Node: n})
			case s.when == nil:
				injections = append(injections, sim.InjectAt{Time: s.at, Node: n, Payload: predicate.Mark{}})
			case !s.mark:
				triggers = append(triggers, sim.Trigger{Node: n, When: s.when, Delay: s.delay})
			default:
				triggers = append(triggers, sim.Trigger{Node: n, When: s.when, Delay: s.delay, Payload: predicate.Mark{}})
			}
		}
	}
	return crashes, triggers, injections
}

// liveWave is one quiescence-separated injection round of the live engine.
type liveWave struct {
	crash []NodeID
	mark  []NodeID
}

// liveWaves groups the plan's timed steps by cursor time, ascending, into
// waves the live engine injects between quiescence barriers. Conditioned
// (OnEvent) steps have no live counterpart and are rejected.
func (p *Plan) liveWaves() ([]liveWave, error) {
	byTime := make(map[int64]*liveWave)
	var times []int64
	for _, s := range p.steps {
		if s.when != nil {
			return nil, fmt.Errorf("cliffedge: the live engine does not support OnEvent steps")
		}
		w := byTime[s.at]
		if w == nil {
			w = &liveWave{}
			byTime[s.at] = w
			times = append(times, s.at)
		}
		if s.mark {
			w.mark = append(w.mark, s.nodes...)
		} else {
			w.crash = append(w.crash, s.nodes...)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]liveWave, len(times))
	for i, t := range times {
		out[i] = *byTime[t]
	}
	return out, nil
}
