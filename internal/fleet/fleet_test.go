package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffedge"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

// tbWriter hands a logger's output to the test log.
type tbWriter struct{ tb testing.TB }

func (w tbWriter) Write(p []byte) (int, error) {
	w.tb.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func testLogger(tb testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(tbWriter{tb}, nil))
}

// newWorker starts a real cliffedged worker (serve.Server over a fresh
// store) behind an httptest listener, optionally wrapped by middleware
// that fakes failures.
func newWorker(t *testing.T, wrap func(http.Handler) http.Handler) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.NewServer(filepath.Join(t.TempDir(), "w"), serve.Config{
		Workers:      2,
		MaxPerClient: 64,
		Logger:       testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, ts
}

// singleBoxReport runs the spec start to finish on one box and returns
// the persisted report bytes — the reference every fleet scenario must
// reproduce exactly.
func singleBoxReport(t *testing.T, spec cliffedge.CampaignSpec) []byte {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "ref"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := serve.Create(st, "ref", "t", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if _, err := sw.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	data, err := st.Report("ref")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitStatus(t *testing.T, co *Coordinator, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		m, err := co.Store().Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Status == want {
			return
		}
		if time.Now().After(deadline) {
			var failure string
			if f := co.Fleet(id); f != nil {
				failure = f.Failure()
			}
			t.Fatalf("fleet %s stuck at %q, want %q (failure: %s)", id, m.Status, want, failure)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetByteIdenticalToSingleBox is the tentpole's core proof: a spec
// sharded over three workers merges into a report byte-identical to one
// box running the whole spec, and the fleet's merged SSE feed carries
// exactly one result event per job plus the terminal report.
func TestFleetByteIdenticalToSingleBox(t *testing.T) {
	spec := testSpec(12)
	want := singleBoxReport(t, spec)

	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, nil)
		urls = append(urls, ts.URL)
	}
	co, err := NewCoordinator(filepath.Join(t.TempDir(), "coord"), Config{
		Workers:       urls,
		Shards:        4,
		WorkerTimeout: 30 * time.Second,
		Logger:        testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)

	f, err := co.Submit(spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, co, f.ID, store.StatusDone, 60*time.Second)

	got, err := co.Store().Report(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fleet report differs from single-box reference")
	}

	total := f.sw.Total()
	// Sweep.Finish marks the manifest done before it appends the terminal
	// event, so wait for the event itself.
	events, wake := f.sw.EventsSince(0)
	for wake != nil && (len(events) == 0 || events[len(events)-1].Type != "done") {
		select {
		case <-wake:
		case <-time.After(30 * time.Second):
			t.Fatal("no terminal event after the manifest said done")
		}
		events, wake = f.sw.EventsSince(0)
	}
	results := 0
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want dense seqs", i, ev.Seq)
		}
		if ev.Type == "result" {
			results++
		}
	}
	if results != total {
		t.Fatalf("merged feed carried %d result events, want %d (one per job)", results, total)
	}
	last := events[len(events)-1]
	if last.Type != "done" || !bytes.Equal(last.Report, want) {
		t.Fatal("terminal event does not carry the single-box report")
	}
	for _, sh := range f.Shards() {
		if !sh.Done {
			t.Fatalf("shard %d not marked done after fleet finished", sh.Index)
		}
	}
}

// TestFleetWorkerLossReassigns kills a worker the moment the coordinator
// first submits to it — every later connection aborts, exactly as a
// SIGKILLed process behaves — and checks the fleet still completes: the
// orphaned shards re-lease to the survivors (lease attempts recorded) and
// the merged report stays byte-identical to the single-box reference.
func TestFleetWorkerLossReassigns(t *testing.T) {
	spec := testSpec(30)
	want := singleBoxReport(t, spec)

	var killed atomic.Bool
	_, ts0 := newWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if killed.Load() {
				panic(http.ErrAbortHandler)
			}
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaigns") {
				killed.Store(true)
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	})
	urls := []string{ts0.URL}
	for i := 0; i < 2; i++ {
		_, ts := newWorker(t, nil)
		urls = append(urls, ts.URL)
	}

	co, err := NewCoordinator(filepath.Join(t.TempDir(), "coord"), Config{
		Workers:       urls,
		Shards:        6,
		WorkerTimeout: 500 * time.Millisecond,
		Logger:        testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)

	f, err := co.Submit(spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, co, f.ID, store.StatusDone, 120*time.Second)

	if !killed.Load() {
		t.Fatal("the doomed worker was never leased a shard")
	}
	attempts := 0
	for _, sh := range f.Shards() {
		attempts += sh.Attempt
		if sh.Worker == ts0.URL {
			t.Fatalf("shard %d still assigned to the dead worker", sh.Index)
		}
	}
	if attempts == 0 {
		t.Fatal("no shard was re-leased despite the worker loss")
	}
	got, err := co.Store().Report(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fleet report after worker loss differs from single-box reference")
	}
}

// TestFleetCoordinatorResume bounces the coordinator mid-fleet: once at
// least one shard has fully committed, Shutdown (manifest stays running),
// then a fresh NewCoordinator over the same store resumes the fleet. The
// committed shard must not be resubmitted — resume recomputes shard
// coverage from the merged log — and the final report stays byte-identical.
func TestFleetCoordinatorResume(t *testing.T) {
	spec := testSpec(24)
	want := singleBoxReport(t, spec)

	var mu sync.Mutex
	var submitted []int64 // SeedStart of every spec POSTed to the worker
	_, ts := newWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaigns") {
				var spec cliffedge.CampaignSpec
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				if json.Unmarshal(body, &spec) == nil {
					mu.Lock()
					submitted = append(submitted, spec.SeedStart)
					mu.Unlock()
				}
			}
			h.ServeHTTP(w, r)
		})
	})

	cfg := Config{
		Workers:       []string{ts.URL},
		Shards:        2,
		PerWorker:     1, // shards run one after the other
		WorkerTimeout: 10 * time.Second,
		Logger:        testLogger(t),
	}
	dir := filepath.Join(t.TempDir(), "coord")
	co1, err := NewCoordinator(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := co1.Submit(spec, "test")
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first shard to commit fully, then bounce mid-fleet.
	deadline := time.Now().Add(60 * time.Second)
	var doneStarts []int64
	for len(doneStarts) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard completed before the bounce")
		}
		for _, sh := range f.Shards() {
			if sh.Done {
				doneStarts = append(doneStarts, sh.SeedStart)
			}
		}
	}
	co1.Shutdown()
	mu.Lock()
	preBounce := len(submitted)
	mu.Unlock()

	co2, err := NewCoordinator(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co2.Shutdown)
	if co2.Fleet(f.ID) == nil {
		t.Fatalf("restarted coordinator did not resume fleet %s", f.ID)
	}
	waitStatus(t, co2, f.ID, store.StatusDone, 60*time.Second)

	mu.Lock()
	postBounce := submitted[preBounce:]
	mu.Unlock()
	for _, start := range postBounce {
		for _, done := range doneStarts {
			if start == done {
				t.Fatalf("committed shard (seed start %d) was resubmitted after the bounce", start)
			}
		}
	}

	got, err := co2.Store().Report(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fleet report after coordinator bounce differs from single-box reference")
	}
}
