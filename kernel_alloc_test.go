package cliffedge

import (
	"runtime"
	"testing"

	"cliffedge/internal/scenario"
)

// TestKernelCascadeAllocBudget bounds what one 48×48 cascade run (seed 1,
// sequential kernel, trace discarded) may allocate. Allocation counts do
// not depend on the clock, so this holds on any box, and it is what
// catches the two costs the kernel once paid per view and per crash
// detection coming back: an opinion matrix allocated for all |B| rounds up
// front, and a Region built for every detection whether or not anything
// reads it. The run measures 43.6 MB in 75.5 k allocations (±10 objects
// across repetitions and GOMAXPROCS); with both costs present it measured
// 168.6 MB in 94.3 k. The budgets are ~1.5× the bytes and ~1.2× the
// objects — loose enough for a Go point release, tight enough that either
// cost alone breaks one of them.
func TestKernelCascadeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const (
		maxBytes   = 65_000_000
		maxMallocs = 90_000
		wantMsgs   = 512_661 // the workload the budgets were measured on
	)
	r := cascadeRunner(t, scenario.CascadeSpec(48, 48, 12, 8, 25, 1), 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Stats.Messages != wantMsgs {
		t.Fatalf("workload changed: %d messages, budgets were measured at %d", res.Stats.Messages, wantMsgs)
	}
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%.1f MB in %d allocations (%d B and %.3f allocations per message)",
		float64(bytes)/1e6, mallocs, bytes/wantMsgs, float64(mallocs)/wantMsgs)
	if bytes > maxBytes {
		t.Errorf("run allocated %.1f MB, budget %d MB", float64(bytes)/1e6, maxBytes/1_000_000)
	}
	if mallocs > maxMallocs {
		t.Errorf("run made %d allocations, budget %d", mallocs, maxMallocs)
	}
}
