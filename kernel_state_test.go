package cliffedge

import (
	"runtime"
	"testing"

	"cliffedge/internal/scenario"
)

// TestKernelStateFollowsBorder checks the paper's locality claim on
// memory: with the crashed block fixed at 12×12 (eight stragglers 25 ticks
// apart, seed 1, sequential kernel, trace discarded), what a cascade run
// retains after Run — the runner still held, its nodes' state included —
// grows with the nodes plus the failure border, not with nodes². From a
// 48×48 to a 96×96 grid the nodes grow 4×, and so may the retained heap,
// no more. When every node kept two |V|-bit sets, every monitored node a
// |V|-bit subscriber set, every crash witness a two-array |V|-entry
// union-find and every sender a |V|-entry FIFO-floor row, it grew 6.0×
// (8.9 → 53.6 MB); sized by what they hold, 2.6× (5.2 → 13.5 MB).
//
// Past the border, what a node costs is what the kernel keeps per node for
// every run: the core's node header, the simulator's per-node rows. So
// from 48×48 to 256×256 the retained heap may grow by at most 256 bytes
// per added node. While every node carried its whole protocol state (616
// bytes) and every crash witness a |V|-entry union-find, it grew by 1024
// (4.6 → 69.3 MB); with dormant node headers and witness union-finds
// keyed by the crashes heard of, by 164 (2.8 → 13.2 MB).
func TestKernelStateFollowsBorder(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	retained := func(dim int) uint64 {
		spec := scenario.CascadeSpec(dim, dim, 12, 8, 25, 1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := cascadeRunner(t, spec, 1)
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Decisions == 0 {
			t.Fatalf("%d×%d: nothing decided", dim, dim)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		runtime.KeepAlive(res)
		return after.HeapAlloc - before.HeapAlloc
	}
	small, large, huge := retained(48), retained(96), retained(256)
	perNode := float64(huge-small) / float64(256*256-48*48)
	t.Logf("retained after Run: 48×48 %.1f MB, 96×96 %.1f MB (%.1f×), 256×256 %.1f MB (%.0f B per added node)",
		float64(small)/1e6, float64(large)/1e6, float64(large)/float64(small), float64(huge)/1e6, perNode)
	if large > 4*small {
		t.Errorf("retained heap grew %.1f× for 4× the nodes: kernel state grows faster than the system",
			float64(large)/float64(small))
	}
	if perNode > 256 {
		t.Errorf("retained heap grew by %.0f B per node from 48×48 to 256×256, want at most 256: nodes that hear of no crash cost more than a few words",
			perNode)
	}
}
