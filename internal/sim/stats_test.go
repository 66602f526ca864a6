package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cliffedge/internal/core"
	"cliffedge/internal/gen"
	"cliffedge/internal/predicate"
	"cliffedge/internal/trace"
)

// genWorkload draws the campaign workload (family, regime, seed) — the
// topology, the fault plan and the network model, in that order, as
// Campaign.runJob draws them — and returns a constructor of its Config.
// Every call builds the run's own factory (so the view-key table lives and
// dies with the run, as it does for every real caller) and binds its own
// netem.Net (a Net counts what it adjudicates). It returns nil when the
// regime produced no wave for the topology.
func genWorkload(t *testing.T, fam gen.Family, reg gen.Regime, seed int64) func() Config {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _ := fam.New(rng)
	waves := reg.Plan(rng, g)
	model := reg.NetModel(rng)
	if len(waves) == 0 {
		return nil
	}
	var crashes []CrashAt
	var marks []InjectAt
	for _, w := range waves {
		for _, n := range w.Crash {
			crashes = append(crashes, CrashAt{Time: w.Time, Node: n})
		}
		for _, n := range w.Mark {
			marks = append(marks, InjectAt{Time: w.Time, Node: n, Payload: predicate.Mark{}})
		}
	}
	return func() Config {
		cfg := Config{Graph: g, Seed: seed, Crashes: crashes, Injections: marks,
			Factory: core.Factory(core.Config{Graph: g})}
		if len(marks) > 0 {
			cfg.Factory = predicate.Factory(core.Config{Graph: g})
		}
		if model != nil {
			net, err := model.Bind(g, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Net = net
		}
		return cfg
	}
}

// TestShardedStatsMatchSummarize pins what Result.Stats is: the kernel's
// own count of the run, equal field by field to trace.Summarize of the
// full trace, and the same whatever consumes the events — nothing (no
// event is built), an observer or the retained trace — at every shard
// count. It covers every generated topology family under
// every fault regime, so link-fault drops, duplicates, retransmission
// delays and predicate marks are all in it.
//
// EndTime is where the producers used to differ: the kernel's clock also
// advances on events that emit nothing (a subscription, a detection or a
// repeated crash at an already-crashed node), and a run that built no
// send events reported that clock. Stats.EndTime is the time of the last event that is, or
// would have been, in the trace; the test fails unless some workload ends
// on a silent kernel event, i.e. unless Result.EndTime is later somewhere.
func TestShardedStatsMatchSummarize(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 4
	}
	type mode struct {
		name     string
		discard  bool
		observer func(trace.Event)
	}
	modes := []mode{
		{name: "nothing reads events", discard: true},
		{name: "no-op observer", discard: true, observer: func(trace.Event) {}},
	}
	workloads, silentEnd, drops := 0, 0, 0
	for _, fam := range gen.Families() {
		for _, reg := range gen.Regimes() {
			for seed := int64(1); seed <= seeds; seed++ {
				newConfig := genWorkload(t, fam, reg, seed)
				if newConfig == nil {
					continue
				}
				workloads++
				run := func(shards int, m mode) *Result {
					cfg := newConfig()
					cfg.Shards, cfg.DiscardEvents, cfg.Observer = shards, m.discard, m.observer
					r, err := NewRunner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatalf("%s/%s seed %d shards %d (%s): %v", fam.Name, reg.Name, seed, shards, m.name, err)
					}
					return res
				}
				retained := run(1, mode{name: "retained"})
				want := trace.Summarize(retained.Events)
				if retained.Stats != want {
					t.Fatalf("%s/%s seed %d: retained run\n%s", fam.Name, reg.Name, seed, statsDiff(retained.Stats, want))
				}
				if retained.EndTime > want.EndTime {
					silentEnd++
				}
				drops += want.Drops
				for _, shards := range []int{1, 2, 8} {
					for _, m := range modes {
						if got := run(shards, m); got.Stats != want {
							t.Errorf("%s/%s seed %d shards %d, %s\n%s",
								fam.Name, reg.Name, seed, shards, m.name, statsDiff(got.Stats, want))
						} else if got.EndTime != retained.EndTime {
							t.Errorf("%s/%s seed %d shards %d, %s: Result.EndTime %d, want %d",
								fam.Name, reg.Name, seed, shards, m.name, got.EndTime, retained.EndTime)
						}
					}
				}
			}
		}
	}
	t.Logf("%d workloads, %d ending on a kernel event that emits nothing, %d drops", workloads, silentEnd, drops)
	if silentEnd == 0 || drops == 0 {
		t.Errorf("the workloads no longer exercise the cases the test is for: %d end on a silent kernel event, %d drops",
			silentEnd, drops)
	}
}

// statsDiff lists the Stats fields on which got and want differ.
func statsDiff(got, want trace.Stats) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	out := ""
	for i := 0; i < g.NumField(); i++ {
		if g.Field(i).Interface() != w.Field(i).Interface() {
			out += fmt.Sprintf("  %s = %v, want %v\n", g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return out
}
