package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cliffedge"
	"cliffedge/internal/store"
)

var testCreated = time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)

func testSpec(seeds int) cliffedge.CampaignSpec {
	return cliffedge.CampaignSpec{
		Topologies: []string{"ring"},
		Regimes:    []string{"quiescent"},
		Engines:    []string{"sim"},
		SeedStart:  1,
		Seeds:      seeds,
		Repeats:    1,
	}
}

// runClean executes the spec start to finish in a fresh store and returns
// the persisted report bytes — the reference every recovery scenario must
// reproduce exactly.
func runClean(t *testing.T, spec cliffedge.CampaignSpec) []byte {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Create(st, "ref", "t", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if _, err := sw.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	data, err := st.Report("ref")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepCrashRecoveryByteIdentical is the tentpole's recovery proof:
// a sweep killed mid-flight — half its results committed, plus a torn
// frame at the log tail exactly as a SIGKILL mid-write leaves it — is
// reopened, resumed, and produces a final report byte-identical to an
// uninterrupted sweep of the same spec.
func TestSweepCrashRecoveryByteIdentical(t *testing.T) {
	spec := testSpec(8)
	want := runClean(t, spec)

	dir := filepath.Join(t.TempDir(), "data")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Create(st, "c000001", "t", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := sw.Remaining()
	if len(jobs) != 8 {
		t.Fatalf("grid has %d jobs, want 8", len(jobs))
	}
	// Complete half the sweep, then "crash": close the log without
	// Finish, manifest still running.
	ctx := context.Background()
	for _, j := range jobs[:4] {
		if err := sw.Commit(j, sw.RunJob(ctx, j), true); err != nil {
			t.Fatal(err)
		}
	}
	sw.Close()

	// Tear the tail: a frame header promising 99 bytes followed by only
	// three — the shape of a write cut short by SIGKILL.
	logPath := filepath.Join(dir, "c000001", "results.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{99, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()

	// Restart: reopen, verify the resume cursor, run the rest.
	sw2, err := Open(st, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	if got := sw2.Completed(); got != 4 {
		t.Fatalf("resumed sweep has %d completed, want 4", got)
	}
	if got := len(sw2.Remaining()); got != 4 {
		t.Fatalf("resumed sweep has %d remaining, want 4", got)
	}
	if _, err := sw2.Run(ctx, 4); err != nil {
		t.Fatal(err)
	}
	got, err := st.Report("c000001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted report:\n got %d bytes\nwant %d bytes\n got: %.400s\nwant: %.400s",
			len(got), len(want), got, want)
	}
}

// TestSweepCancelledRunsNotPersisted pins the persist=false path: a run
// committed as aborted is dropped entirely — no log record (so resume
// re-runs it), no aggregation (its context-error stats must not poison
// reports) and no event (the seq space holds exactly the committed runs,
// keeping seqs stable across restarts).
func TestSweepCancelledRunsNotPersisted(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2)
	sw, err := Create(st, "c000001", "t", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := sw.Remaining()
	ctx := context.Background()
	if err := sw.Commit(jobs[0], sw.RunJob(ctx, jobs[0]), true); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(jobs[1], cliffedge.CampaignRunStats{Err: "context canceled"}, false); err != nil {
		t.Fatal(err)
	}
	events, _ := sw.EventsSince(0)
	if len(events) != 1 {
		t.Fatalf("%d events, want 1 (aborted run must not enter the stream)", len(events))
	}
	if ev := events[0]; ev.Completed != 1 || ev.TotalErrors != 0 {
		t.Fatalf("event counters = %d completed, %d errors, want 1, 0", ev.Completed, ev.TotalErrors)
	}
	if rep := sw.Report(); rep.Totals.Errors != 0 || rep.Totals.Runs != 1 {
		t.Fatalf("partial report totals = %d runs, %d errors, want 1, 0",
			rep.Totals.Runs, rep.Totals.Errors)
	}
	sw.Close()

	sw2, err := Open(st, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	if got := sw2.Completed(); got != 1 {
		t.Fatalf("resumed sweep has %d completed, want 1", got)
	}
	rem := sw2.Remaining()
	if len(rem) != 1 || rem[0] != jobs[1] {
		t.Fatalf("remaining = %v, want [%v]", rem, jobs[1])
	}
}

// TestSweepEventStream pins the event history: dense seqs from 1, one
// result event per job with cumulative counters, a terminal "done" event
// carrying the report, and EventsSince resuming from any cursor.
func TestSweepEventStream(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(3)
	sw, err := Create(st, "c000001", "t", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if _, err := sw.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	events, _ := sw.EventsSince(0)
	if len(events) != 4 {
		t.Fatalf("%d events, want 3 results + 1 done", len(events))
	}
	for i, ev := range events[:3] {
		if ev.Seq != int64(i+1) || ev.Type != "result" || ev.Job == nil {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.Completed != i+1 || ev.Total != 3 {
			t.Fatalf("event %d counters = %d/%d", i, ev.Completed, ev.Total)
		}
	}
	last := events[3]
	if !last.Terminal() || last.Type != "done" || len(last.Report) == 0 {
		t.Fatalf("terminal event = %+v", last)
	}
	tail, _ := sw.EventsSince(2)
	if len(tail) != 2 || tail[0].Seq != 3 {
		t.Fatalf("EventsSince(2) = %+v", tail)
	}
	// A negative cursor (bogus client Last-Event-ID) must not panic and
	// reads from the start.
	neg, _ := sw.EventsSince(-1)
	if len(neg) != 4 {
		t.Fatalf("EventsSince(-1) returned %d events, want 4", len(neg))
	}
}

// TestSweepCancelledHasNoReport: once the "cancelled" event is out, the
// sweep serves no report, even before the server gets round to Close.
func TestSweepCancelledHasNoReport(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Create(st, "c000001", "t", testCreated, testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if sw.Report() == nil {
		t.Fatal("a running sweep serves its live report")
	}
	if err := sw.Cancel(); err != nil {
		t.Fatal(err)
	}
	if events, _ := sw.EventsSince(0); len(events) != 1 || events[0].Type != "cancelled" {
		t.Fatalf("events after Cancel = %+v, want one \"cancelled\"", events)
	}
	if rep := sw.Report(); rep != nil {
		t.Fatalf("a cancelled sweep served a report: %+v", rep)
	}
}

// TestCommitUnique covers the fleet merge's write primitive: committing
// the same job twice persists and aggregates it once, emits one event,
// and reports the duplicate without error — which is what lets a
// re-assigned shard re-deliver records a lost worker already synced.
func TestCommitUnique(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Create(st, "c000001", "t", testCreated, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	ctx := context.Background()
	jobs := sw.Remaining()
	stats := sw.RunJob(ctx, jobs[0])

	if fresh, err := sw.CommitUnique(jobs[0], stats); err != nil || !fresh {
		t.Fatalf("first CommitUnique = (%v, %v), want (true, nil)", fresh, err)
	}
	if !sw.IsCommitted(jobs[0]) {
		t.Fatal("job not reported committed after CommitUnique")
	}
	if fresh, err := sw.CommitUnique(jobs[0], stats); err != nil || fresh {
		t.Fatalf("duplicate CommitUnique = (%v, %v), want (false, nil)", fresh, err)
	}
	if sw.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1", sw.Completed())
	}
	if events, _ := sw.EventsSince(0); len(events) != 1 {
		t.Fatalf("%d events after duplicate commit, want 1", len(events))
	}
	if sw.IsCommitted(jobs[1]) {
		t.Fatal("uncommitted job reported committed")
	}
}
