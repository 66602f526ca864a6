package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"cliffedge/internal/gen"
	"cliffedge/internal/graph"
	"cliffedge/internal/proto"
	"cliffedge/internal/region"
	"cliffedge/internal/sim"
)

// The three drivers of the lockstep check: every handler call a Node
// takes in them is also taken by the reference automaton (refNode), and
// the two must return the same effects — sends by Message.String,
// subscriptions, proposals, rejections, resets, decisions and values.

// FuzzCoreMatchesReference runs TestQuickRandomEventSequences's generator
// — crashes of monitored nodes and well-formed messages in hostile orders
// with arbitrary opinion vectors, and with conflicting accept values if
// conflicts is set — through a lockstep node.
func FuzzCoreMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, seed%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, conflicts bool) {
		if _, _, diffs := fuzzDriver(seed, conflicts); len(diffs) > 0 {
			t.Fatalf("seed %d: node and reference disagree:\n%s", seed, strings.Join(diffs, "\n"))
		}
	})
}

// lockstepState is one global state of lockstepExplore: the model
// checker's exploration (internal/mck) with lockstep nodes.
type lockstepState struct {
	nodes    map[graph.NodeID]*lockstep
	channels map[[2]graph.NodeID][]*Message
	detects  map[graph.NodeID][]graph.NodeID
	subs     map[graph.NodeID]map[graph.NodeID]bool
	crashed  map[graph.NodeID]bool
	pending  []graph.NodeID
}

func (s *lockstepState) clone() *lockstepState {
	out := &lockstepState{
		nodes:    make(map[graph.NodeID]*lockstep, len(s.nodes)),
		channels: make(map[[2]graph.NodeID][]*Message, len(s.channels)),
		detects:  make(map[graph.NodeID][]graph.NodeID, len(s.detects)),
		subs:     make(map[graph.NodeID]map[graph.NodeID]bool, len(s.subs)),
		crashed:  make(map[graph.NodeID]bool, len(s.crashed)),
		pending:  append([]graph.NodeID(nil), s.pending...),
	}
	for id, n := range s.nodes {
		out.nodes[id] = n.clone()
	}
	for k, q := range s.channels {
		out.channels[k] = append([]*Message(nil), q...)
	}
	for k, q := range s.detects {
		out.detects[k] = append([]graph.NodeID(nil), q...)
	}
	for k, set := range s.subs {
		m := make(map[graph.NodeID]bool, len(set))
		for q := range set {
			m[q] = true
		}
		out.subs[k] = m
	}
	for k := range s.crashed {
		out.crashed[k] = true
	}
	return out
}

// fingerprint is the model checker's state fingerprint.
func (s *lockstepState) fingerprint(g *graph.Graph) string {
	var sb strings.Builder
	for _, id := range g.Nodes() {
		sb.WriteString(s.nodes[id].node.Fingerprint())
		sb.WriteByte('\n')
	}
	for _, k := range s.channelKeys() {
		fmt.Fprintf(&sb, "ch%s>%s:", k[0], k[1])
		for _, m := range s.channels[k] {
			sb.WriteString(MessageFingerprint(m))
			sb.WriteByte(';')
		}
	}
	for _, p := range s.subscribers() {
		ds := append([]graph.NodeID(nil), s.detects[p]...)
		graph.SortIDs(ds)
		fmt.Fprintf(&sb, "dt%s:%v;", p, ds)
	}
	pend := append([]graph.NodeID(nil), s.pending...)
	graph.SortIDs(pend)
	fmt.Fprintf(&sb, "pend%v;crash%v", pend, graph.SetToSlice(s.crashed))
	return sb.String()
}

func (s *lockstepState) channelKeys() [][2]graph.NodeID {
	keys := make([][2]graph.NodeID, 0, len(s.channels))
	for k, q := range s.channels {
		if len(q) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

func (s *lockstepState) subscribers() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.detects))
	for p := range s.detects {
		out = append(out, p)
	}
	graph.SortIDs(out)
	return out
}

func (s *lockstepState) apply(g *graph.Graph, id graph.NodeID, eff proto.Effects) {
	for _, qi := range eff.Monitor {
		q := g.ID(qi)
		if s.subs[q] == nil {
			s.subs[q] = make(map[graph.NodeID]bool)
		}
		if !s.subs[q][id] {
			s.subs[q][id] = true
			if s.crashed[q] {
				s.detects[id] = append(s.detects[id], q)
			}
		}
	}
	for _, send := range eff.Sends {
		for _, ti := range send.To {
			if to := g.ID(ti); to != id {
				k := [2]graph.NodeID{id, to}
				s.channels[k] = append(s.channels[k], send.Payload.(*Message))
			}
		}
	}
}

// lockstepExplore visits every state the model checker visits on the same
// configuration — crash injections, detections and FIFO deliveries in
// every order, states deduplicated by fingerprint, in the checker's order
// — and returns how many it visited. Each participant proposes a value of
// its own and Pick reorders its argument, as TestSentMessagesNeverChange
// has them, so a message whose value column changes after it was sent
// reaches its receivers' references unchanged and their Nodes changed.
func lockstepExplore(t *testing.T, g *graph.Graph, crashes []graph.NodeID, literal bool) int {
	run := new(lockstepRun)
	root := &lockstepState{
		nodes:    make(map[graph.NodeID]*lockstep),
		channels: make(map[[2]graph.NodeID][]*Message),
		detects:  make(map[graph.NodeID][]graph.NodeID),
		subs:     make(map[graph.NodeID]map[graph.NodeID]bool),
		crashed:  make(map[graph.NodeID]bool),
		pending:  append([]graph.NodeID(nil), crashes...),
	}
	for _, id := range g.Nodes() {
		cfg := Config{ID: id, Graph: g, LiteralPaperRounds: literal,
			Propose: func(v region.Region) proto.Value { return proposal(id, v) }, Pick: reorderingPick}
		n := run.wrap(New(cfg), cfg)
		root.nodes[id] = n
		root.apply(g, id, n.Start())
	}
	visited := make(map[string]bool)
	var dfs func(s *lockstepState)
	dfs = func(s *lockstepState) {
		fp := s.fingerprint(g)
		if visited[fp] || len(run.diffs) > 0 {
			return
		}
		visited[fp] = true
		for i := range s.pending {
			next := s.clone()
			q := next.pending[i]
			next.pending = append(next.pending[:i], next.pending[i+1:]...)
			if !next.crashed[q] {
				next.crashed[q] = true
				for p := range next.subs[q] {
					if !next.crashed[p] {
						next.detects[p] = append(next.detects[p], q)
					}
				}
			}
			dfs(next)
		}
		for _, p := range s.subscribers() {
			for i := range s.detects[p] {
				next := s.clone()
				q := next.detects[p][i]
				next.detects[p] = append(next.detects[p][:i], next.detects[p][i+1:]...)
				if len(next.detects[p]) == 0 {
					delete(next.detects, p)
				}
				if !next.crashed[p] {
					next.apply(g, p, next.nodes[p].OnCrash(q))
				}
				dfs(next)
			}
		}
		for _, k := range s.channelKeys() {
			next := s.clone()
			m := next.channels[k][0]
			if next.channels[k] = next.channels[k][1:]; len(next.channels[k]) == 0 {
				delete(next.channels, k)
			}
			if !next.crashed[k[1]] {
				next.apply(g, k[1], next.nodes[k[1]].OnMessage(k[0], m))
			}
			dfs(next)
		}
	}
	dfs(root)
	run.finish()
	if len(run.diffs) > 0 {
		t.Fatalf("node and reference disagree:\n%s", strings.Join(run.diffs, "\n"))
	}
	return len(visited)
}

// reorderingPick is DefaultPick through a sort that reorders its argument,
// as a user's Pick may.
func reorderingPick(values []proto.Value) proto.Value {
	slices.SortFunc(values, func(a, b proto.Value) int { return strings.Compare(string(b), string(a)) })
	return values[len(values)-1]
}

// TestReferenceMatchesCoreOnEveryInterleaving runs the lockstep check over
// the model checker suite's configurations (internal/mck's tests, which
// cannot import this package's test files). The state counts are the ones
// the checker reports for the same configurations: the two explorations
// visit the same interleavings.
func TestReferenceMatchesCoreOnEveryInterleaving(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		crashes []graph.NodeID
		literal bool
		states  int
	}{
		{"path", graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").Build(), []graph.NodeID{"b"}, false, 13},
		{"triangle", graph.NewBuilder().
			AddEdge("a", "x").AddEdge("b", "x").AddEdge("c", "x").
			AddEdge("a", "b").AddEdge("b", "c").Build(), []graph.NodeID{"x"}, false, 396},
		{"growing", graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build(),
			[]graph.NodeID{"b", "c"}, false, 2646},
		{"adjacent", graph.NewBuilder().
			AddEdge("a", "b").AddEdge("b", "s").AddEdge("s", "c").AddEdge("c", "d").Build(),
			[]graph.NodeID{"b", "c"}, false, 178},
		{"square", graph.NewBuilder().
			AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").AddEdge("d", "a").Build(),
			[]graph.NodeID{"b", "c"}, false, 2646},
		{"star", graph.Star(4), []graph.NodeID{graph.RingID(1), graph.RingID(2)}, false, 10},
		{"literal", graph.NewBuilder().AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").Build(),
			[]graph.NodeID{"b", "c"}, true, 1000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			states := lockstepExplore(t, c.g, c.crashes, c.literal)
			t.Logf("%d states", states)
			if states != c.states {
				t.Errorf("explored %d states, the model checker explores %d", states, c.states)
			}
		})
	}
}

// TestReferenceMatchesCoreOnMixedGrid runs the cells of the mixed grid —
// every topology family × every crash regime, seeds 1–10, drawn as
// campaign jobs draw them — on the simulator with every node a lockstep
// node. The upgrade regime is left out: its marks need the predicate
// layer, which wraps a *Node. Every run cuts its nodes from one Slab, as
// campaign jobs do, so a node that keeps state from an earlier run shows.
func TestReferenceMatchesCoreOnMixedGrid(t *testing.T) {
	var slab Slab
	for _, fam := range gen.Families() {
		for _, reg := range gen.Regimes() {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g, _ := fam.New(rng)
				waves := reg.Plan(rng, g)
				var crashes []sim.CrashAt
				marks := false
				for _, w := range waves {
					marks = marks || len(w.Mark) > 0
					for _, q := range w.Crash {
						crashes = append(crashes, sim.CrashAt{Time: w.Time, Node: q})
					}
				}
				if marks {
					continue
				}
				cfg := sim.Config{Graph: g, Seed: seed, Crashes: crashes, DiscardEvents: true}
				if m := reg.NetModel(rng); m != nil {
					net, err := m.Bind(g, seed)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Net = net
				}
				run := new(lockstepRun)
				cfg.Factory = run.factory(Config{Graph: g}, slab.Factory(Config{Graph: g}))
				r, err := sim.NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", fam.Name, reg.Name, seed, err)
				}
				run.finish()
				if len(run.diffs) > 0 {
					t.Fatalf("%s/%s/%d: node and reference disagree:\n%s",
						fam.Name, reg.Name, seed, strings.Join(run.diffs, "\n"))
				}
				if len(crashes) > 0 && res.Stats.Decisions == 0 && reg.Check == gen.CheckFull {
					t.Errorf("%s/%s/%d: nothing decided", fam.Name, reg.Name, seed)
				}
			}
		}
	}
}
