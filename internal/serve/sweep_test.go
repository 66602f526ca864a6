package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"cliffedge"
	"cliffedge/internal/gen"
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
// sweep serves no report, even before the server gets round to Close,
// and commits nothing more.
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
	// A commit would take the terminal event's seq.
	job := sw.Remaining()[0]
	if err := sw.Commit(job, sw.RunJob(context.Background(), job), true); err == nil {
		t.Fatal("a cancelled sweep accepted a commit")
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

// TestSweepRejectsWhatRowsCannotHold: a row keeps the grid index and a
// run's counts in 32 bits, so a spec whose grid has more jobs is refused
// before anything is persisted, and a record whose counts do not fit is
// refused before it is logged.
func TestSweepRejectsWhatRowsCannotHold(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ seeds, repeats int }{{math.MaxInt32, 2}, {1 << 62, 4}} {
		spec := testSpec(tc.seeds)
		spec.Repeats = tc.repeats
		_, err := Create(st, "c000001", "t", testCreated, spec)
		var he *HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
			t.Fatalf("Create(%d seeds × %d repeats) = %v, want a 400", tc.seeds, tc.repeats, err)
		}
	}
	if ms, err := st.List(); err != nil || len(ms) != 0 {
		t.Fatalf("refused specs left manifests %v (%v)", ms, err)
	}

	sw, err := Create(st, "c000001", "t", testCreated, testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	job := sw.Remaining()[0]
	if _, err := sw.CommitUnique(job, cliffedge.CampaignRunStats{Decisions: 1 << 40}); err == nil {
		t.Fatal("a record with 2^40 decisions was committed")
	}
	if sw.IsCommitted(job) || sw.Completed() != 0 {
		t.Fatal("a refused record counts as committed")
	}
}

// TestSweepEventsRenderFromRows commits synthetic runs out of grid
// order, some errored and some with violations, and checks that every
// cursor from -1 to past the end reads the same events — JSON for JSON —
// from a live sweep, a finished and closed one, and the sweep reopened
// from the store, against the history the commits imply.
func TestSweepEventsRenderFromRows(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(5)
	spec.Regimes = []string{"quiescent", "overlapping"}
	spec.Repeats = 2
	sw, err := Create(st, "c000001", "t", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := sw.Remaining()
	total := len(jobs)
	rand.New(rand.NewSource(3)).Shuffle(total, func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	var want []Event
	errs, viols := 0, 0
	for k, job := range jobs {
		stats := cliffedge.CampaignRunStats{Decisions: k % 7, Nodes: 8, DecideLatency: -1}
		if k%4 == 1 {
			stats.Violations = k%3 + 1
		}
		if k%6 == 0 {
			stats.Err = fmt.Sprintf("synthetic failure %d", k)
			errs++
		}
		viols += stats.Violations
		if err := sw.Commit(job, stats, true); err != nil {
			t.Fatal(err)
		}
		j := job
		want = append(want, Event{
			Seq: int64(k + 1), Type: "result", Job: &j, Err: stats.Err,
			Decisions: stats.Decisions, Violations: stats.Violations,
			Completed: k + 1, Total: total, TotalErrors: errs, TotalViolations: viols,
		})
	}
	if errs == 0 || viols == 0 {
		t.Fatal("the synthetic history has no errored run or no violation")
	}

	check := func(name string, sw *Sweep, want []Event) {
		t.Helper()
		for since := int64(-1); since <= int64(total)+1; since++ {
			got, _ := sw.EventsSince(since)
			exp := want[min(max(since, 0), int64(len(want))):]
			var gotJSON, expJSON []byte
			for _, ev := range got {
				data, _ := json.Marshal(ev)
				gotJSON = append(append(gotJSON, data...), '\n')
			}
			for _, ev := range exp {
				data, _ := json.Marshal(ev)
				expJSON = append(append(expJSON, data...), '\n')
			}
			if len(got) != len(exp) || !bytes.Equal(gotJSON, expJSON) {
				t.Fatalf("%s: EventsSince(%d):\n got %s\nwant %s", name, since, gotJSON, expJSON)
			}
		}
	}
	check("live", sw, want)

	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	report, err := st.Report("c000001")
	if err != nil {
		t.Fatal(err)
	}
	sw.Close()
	done := Event{Seq: int64(total + 1), Type: "done", Completed: total, Total: total,
		TotalErrors: errs, TotalViolations: viols, Report: report}
	check("closed", sw, append(slices.Clip(want), done))

	sw2, err := Open(st, "c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	check("reopened", sw2, want)
}

// TestFinishedSweepBytesPerJob bounds what a finished sweep a backend
// keeps for its event history retains per job: a 7200-job sweep is
// committed, finished and closed, and the live heap it holds afterwards
// is divided by its grid size.
func TestFinishedSweepBytesPerJob(t *testing.T) {
	const bound = 64 // B per job
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1200)
	spec.Regimes = gen.RegimeNames()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	sw, err := Create(st, "c000001", "t", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := sw.Remaining()
	if len(jobs) != 7200 {
		t.Fatalf("grid has %d jobs, want 7200", len(jobs))
	}
	for k, job := range jobs {
		stats := cliffedge.CampaignRunStats{Decisions: 3, Nodes: 8, DecideLatency: 4, Messages: 40}
		if k%1000 == 0 {
			stats.Err = "synthetic failure"
		}
		if err := sw.Commit(job, stats, true); err != nil {
			t.Fatal(err)
		}
	}
	jobs = nil
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	sw.Close()
	after := heap()
	runtime.KeepAlive(sw)
	perJob := (float64(after) - float64(before)) / 7200
	t.Logf("a finished sweep retains %.1f B per job", perJob)
	if perJob > bound {
		t.Errorf("a finished sweep retains %.1f B per job, bound %d", perJob, bound)
	}
}
