package sim

import (
	"testing"
	"unsafe"

	"cliffedge/internal/core"
	"cliffedge/internal/graph"
)

// TestShardedRunSharesViewKeys: in a 12×12 cascade run over core.Factory,
// border nodes that proposed the same component — each built it for itself
// — hold one key string between them, at every shard count (the lanes of a
// sharded run build regions through the run's table concurrently: this is
// its -race test). Two runs share nothing: the table belongs to the
// factory.
func TestShardedRunSharesViewKeys(t *testing.T) {
	g := graph.Grid(12, 12)
	var crashes []CrashAt
	for _, n := range graph.CenterBlock(12, 12, 3) {
		crashes = append(crashes, CrashAt{Time: 10, Node: n})
	}
	for i, n := range []graph.NodeID{graph.GridID(3, 4), graph.GridID(3, 5), graph.GridID(7, 8), graph.GridID(6, 3)} {
		crashes = append(crashes, CrashAt{Time: 35 + 25*int64(i), Node: n})
	}
	// views maps each view key proposed last by some node to the key
	// strings those nodes hold.
	views := func(shards int) map[string][]string {
		r, err := NewRunner(Config{Graph: g, Factory: core.Factory(core.Config{Graph: g}),
			Seed: 1, Crashes: crashes, Shards: shards, DiscardEvents: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Decisions) == 0 {
			t.Fatal("nothing decided")
		}
		out := make(map[string][]string)
		for _, a := range res.Automata {
			if key := a.(*core.Node).CurrentView().Key(); key != "" {
				out[key] = append(out[key], key)
			}
		}
		return out
	}
	first := views(1)
	for _, shards := range []int{1, 2, 8} {
		shared := 0
		for key, held := range views(shards) {
			for _, k := range held[1:] {
				if unsafe.StringData(k) != unsafe.StringData(held[0]) {
					t.Errorf("shards %d: two proposers of {%s} hold separate copies of its key", shards, key)
				}
				shared++
			}
			if other := first[key]; shards > 1 && other != nil && unsafe.StringData(other[0]) == unsafe.StringData(held[0]) {
				t.Errorf("shards %d: key {%s} is shared with another run", shards, key)
			}
		}
		if shared == 0 {
			t.Fatalf("shards %d: no view was proposed by two nodes", shards)
		}
	}
}
