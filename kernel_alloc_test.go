package cliffedge

import (
	"context"
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
// reads it. The run measured 43.6 MB in 75.5 k allocations (±10 objects
// across repetitions and GOMAXPROCS) when the budgets were set, and
// 168.6 MB in 94.3 k with both costs present; it measured 43.3 MB in
// 71.4 k once vectors carried bitmasks (87.8 k if every vector's masks
// and every call's eff.Sends were allocations of their own), and 40.9 MB
// in 72.1 k → 40.6 MB in 67.4 k once a message travelled as one *Message
// carrying its sender's border position and recipients as the view's own
// border indices (an instance no longer builds an index copy of its
// border), and 15.6 MB in 44.4 k once opinions were two bitmasks and one
// value column per view that round messages share instead of copying a
// vector (budgets 61 MB → 23.5 MB and 81 000 → 53 500 objects), and
// 15.6 MB in 42.1 k once a run's nodes were cut from one slab instead of
// allocated one by one (objects budget 53 500 → 50 500), and 12.1 MB in
// 34.5 k once per-node and per-sender kernel state was sized by what it
// holds — crash and monitored sets sized on a node's first detection,
// subscriber lists and FIFO floors as sorted rows, a one-array union-find
// — instead of by |V| (budgets 23.5 MB → 18.2 MB and 50 500 → 41 500
// objects; the parent measured 15.6 MB in 42.1 k), and 8.4 MB in 35.7 k
// once a node took its protocol state only on its first crash or message
// and a witness's union-find was keyed by the crashes it heard of (byte
// budget 18.2 MB → 12.6 MB; the parent measured 10.0 MB in 34.2 k: the
// union-find grows by appends now). The budgets are
// ~1.5× the bytes and ~1.2× the objects — loose enough for a Go point
// release, tight enough that either cost alone breaks one of them.
func TestKernelCascadeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const (
		maxBytes   = 12_600_000
		maxMallocs = 41_500
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

// TestKernelCascade64Counts pins the timing-free outcome of the 64×64
// cascade (centre 16×16 block, eight stragglers 25 ticks apart, seed 1,
// sequential kernel): messages, modelled bytes, decisions and end time.
// These counts have been the same since the counter-based latency draws;
// the frozen trajectory in docs/KERNEL_PROFILE.md records them. A kernel
// or protocol change that moves one changes what the benchmarks measure,
// so it must say so.
func TestKernelCascade64Counts(t *testing.T) {
	if raceEnabled {
		t.Skip("the 64×64 cascade takes ~7 s under the race detector; the counts do not depend on it")
	}
	res, err := cascadeRunner(t, scenario.CascadeSpec(64, 64, 16, 8, 25, 1), 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Messages; got != 937_675 {
		t.Errorf("messages = %d, want 937 675", got)
	}
	if got := res.Stats.Bytes; got != 115_978_455_838 {
		t.Errorf("bytes = %d, want 115 978 455 838", got)
	}
	if got := res.Stats.Decisions; got != 79 {
		t.Errorf("decisions = %d, want 79", got)
	}
	if got := res.EndTime; got != 3898 {
		t.Errorf("end time = %d, want 3898", got)
	}
}

// TestSmallRunAllocBudget is the other side of TestKernelCascadeAllocBudget:
// what one Campaign.RunJob — a 16–56-node topology, borders of a handful of
// nodes, the online checker attached: the posture of every job of a sweep —
// may allocate. Opinion bitmasks, the run's view-key table and the kernel's
// own counters pay off on long borders and unread traces; this pins that
// the thousands of small observed runs a sweep is made of do not pay for
// them. The budgets were first what the parent of the change that
// introduced those mechanisms (05d98b2) allocates, plus 5 %: it measures
// 7716–7723 objects and 1 646 896–1 652 352 B for scalefree/midprotocol
// seed 1 (11 597 messages) and 1003–1009 objects and 95 728–101 232 B for
// ring/quiescent seed 1 (16 messages) over six repetitions; the spread is
// the runtime's own (a few objects of a background goroutine now and
// then), so the test takes the smallest of three repetitions. They were
// lowered to the same rule when messages began to travel as one *Message
// with dense recipient indices and the checker to decode each view once:
// scalefree/midprotocol 7362–7369 → 5853 objects and 1 634 504 → 1 440 664
// B, ring/quiescent 999 → 917 objects and 98 952 → 97 424 B (the ring's
// byte budget stayed at 100 500: 5 % over that figure would have raised
// it). They were lowered by the same rule again when opinions became two
// bitmasks and one value column per view: scalefree/midprotocol 5853 →
// 4208 objects and 1 440 664 → 827 136 B, ring/quiescent 922 → 889
// objects and 97 792 → 95 664 B (budgets 6 150 → 4 420, 1 513 000 →
// 868 500, 963 → 934 and 100 500 → 100 450). They were lowered by the
// same rule once more when the online checker kept its state by graph
// index instead of by node ID: scalefree/midprotocol 4208 → 4165 objects
// and 827 264 → 741 728 B (budgets 4 420 → 4 375 and 868 500 → 778 850);
// ring/quiescent moved 889 → 890 objects and 95 792 → 96 000 B, within
// its budgets, which 5 % over those figures would have raised. They were
// lowered by the same rule when a job began to reuse a run context (the
// generator's rand.Rand, the checker, the kernel runner and a slab of
// protocol nodes, all reset in place) and topologies were built straight
// into CSR: scalefree/midprotocol 4165 → 2918 objects and 741 728 →
// 513 144 B, ring/quiescent 890 → 311 objects and 96 000 → 28 024 B
// (budgets 4 375 → 3 064, 778 850 → 538 800, 934 → 327 and 100 450 →
// 29 430). Since then the measurement runs on one P (see below). They
// were lowered by the same rule when kernel state began to be sized by
// what it holds and Result.Automata stopped being a map built per run:
// scalefree/midprotocol 2918 → 2911 objects and 513 144 → 510 384 B,
// ring/quiescent 311 → 303 objects and 28 024 → 25 152 B (budgets 3 064
// → 3 057, 538 800 → 535 900, 327 → 318 and 29 430 → 26 410).
func TestSmallRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	camp, err := NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	// A job takes its run context from a sync.Pool, whose fast path is
	// per-P: a goroutine that moved to another P after runtime.GC misses
	// the context it returned and builds a new one. One P keeps every
	// repetition on the steady-state path a long-lived worker is on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		topology, regime     string
		maxMallocs, maxBytes uint64
	}{
		{"scalefree", "midprotocol", 3_057, 535_900},
		{"ring", "quiescent", 318, 26_410},
	} {
		job := CampaignJob{Cell: CampaignCellKey{Topology: c.topology, Regime: c.regime, Engine: "sim"}, Seed: 1}
		mallocs, bytes := ^uint64(0), ^uint64(0)
		for rep := 0; rep < 4; rep++ { // the first repetition warms up and is not counted
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			stats := camp.RunJob(context.Background(), job)
			runtime.ReadMemStats(&after)
			if stats.Err != "" || stats.Skipped || stats.Violations != 0 || stats.Decisions == 0 {
				t.Fatalf("%s/%s: %+v", c.topology, c.regime, stats)
			}
			if rep > 0 {
				mallocs = min(mallocs, after.Mallocs-before.Mallocs)
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			}
		}
		t.Logf("%s/%s: %d B in %d allocations", c.topology, c.regime, bytes, mallocs)
		if mallocs > c.maxMallocs {
			t.Errorf("%s/%s: %d allocations, budget %d", c.topology, c.regime, mallocs, c.maxMallocs)
		}
		if bytes > c.maxBytes {
			t.Errorf("%s/%s: %d B allocated, budget %d", c.topology, c.regime, bytes, c.maxBytes)
		}
	}
}
