package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cliffedge/internal/campaign"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

// feedFetch is one /results request a worker answered.
type feedFetch struct {
	remote string // campaign ID on the worker
	offset int64
	code   int
	bytes  int
}

// feedLog is worker middleware that records every /results request and,
// through intercept, lets a test answer some of them itself.
type feedLog struct {
	mu      sync.Mutex
	fetches []feedFetch

	// intercept, if set, sees each /results request first (under mu, with
	// the real handler at hand) and returns true once it has answered.
	intercept func(w http.ResponseWriter, r *http.Request, offset int64, real http.Handler) bool
}

func (l *feedLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/results") {
			h.ServeHTTP(w, r)
			return
		}
		offset, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
		rec := httptest.NewRecorder()
		l.mu.Lock()
		if l.intercept == nil || !l.intercept(rec, r, offset, h) {
			h.ServeHTTP(rec, r)
		}
		l.fetches = append(l.fetches, feedFetch{
			remote: remoteOf(r.URL.Path), offset: offset, code: rec.Code, bytes: rec.Body.Len(),
		})
		l.mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

func (l *feedLog) snapshot() []feedFetch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]feedFetch(nil), l.fetches...)
}

// remoteOf extracts the campaign ID from a /results path; the middleware
// runs outside the mux, so PathValue is not set.
func remoteOf(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	return parts[len(parts)-2]
}

func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func mustReport(t *testing.T, co *Coordinator, id string) []byte {
	t.Helper()
	data, err := co.Store().Report(id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetFeedFetchesOnlyNewRecords is the cursor's cost proof: over a
// 2000-record shard the coordinator reads each byte of the worker's log
// about once — not once per sync — and decodes no record it already
// holds, while the merged report stays byte-identical.
func TestFleetFeedFetchesOnlyNewRecords(t *testing.T) {
	spec := testSpec(2000)
	want := singleBoxReport(t, spec)

	var feed feedLog
	_, ts := newWorker(t, feed.wrap)
	co, err := NewCoordinator(filepath.Join(t.TempDir(), "coord"), Config{
		Workers:       []string{ts.URL},
		Shards:        1,
		WorkerTimeout: 30 * time.Second,
		Logger:        testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)

	deduped, fetched := mRecordsDeduped.Load(), mSyncBytes.Load()
	f, err := co.Submit(spec, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, co, f.ID, store.StatusDone, 120*time.Second)
	if !bytes.Equal(mustReport(t, co, f.ID), want) {
		t.Fatal("fleet report differs from single-box reference")
	}

	fetches := feed.snapshot()
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + fetches[0].remote + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	whole.ReadFrom(resp.Body)
	resp.Body.Close()
	logSize := whole.Len()

	// A fetch that catches the worker mid-append ends in a partial frame,
	// which the cursor does not advance over: the next fetch starts at most
	// where the last one ended, and never before where it started.
	sum, prev, end := 0, int64(0), int64(0)
	for i, ft := range fetches {
		if ft.code != http.StatusOK {
			t.Fatalf("fetch %d: status %d", i, ft.code)
		}
		if ft.offset < prev || ft.offset > end {
			t.Fatalf("fetch %d asked for offset %d; the last one covered [%d, %d)", i, ft.offset, prev, end)
		}
		prev, end = ft.offset, ft.offset+int64(ft.bytes)
		sum += ft.bytes
	}
	if len(fetches) < 10 {
		t.Fatalf("only %d fetches over a 2000-record shard; the merge is not incremental", len(fetches))
	}
	if sum >= 2*logSize {
		t.Fatalf("coordinator read %d bytes of a %d-byte log over %d fetches", sum, logSize, len(fetches))
	}
	if got := mSyncBytes.Load() - fetched; got != uint64(sum) {
		t.Fatalf("cliffedge_fleet_sync_bytes_total grew by %d, workers served %d", got, sum)
	}
	if got := mRecordsDeduped.Load() - deduped; got != 0 {
		t.Fatalf("a fault-free shard deduped %d records; every record should be fetched once", got)
	}
}

// TestFleetFeedSurvivesReplacedLog swaps the worker's log under the
// cursor: one sync is answered 416 (the log is shorter than the cursor),
// and the restart from 0 finds a log that holds less than the coordinator
// already merged. The feed must follow the new log from there — overlap
// absorbed by the dedup — and finish the shard with full coverage, without
// a re-run.
func TestFleetFeedSurvivesReplacedLog(t *testing.T) {
	spec := testSpec(1500)
	want := singleBoxReport(t, spec)

	var feed feedLog
	stage := 0 // 0: waiting for a cursor worth breaking, 1: 416 sent, 2: short log sent
	var staleCursor int64
	feed.intercept = func(w http.ResponseWriter, r *http.Request, offset int64, real http.Handler) bool {
		switch {
		case stage == 0 && offset > 20_000:
			stage, staleCursor = 1, offset
			w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
			return true
		case stage == 1:
			stage = 2
			if offset != 0 {
				t.Errorf("after a 416 the feed asked for offset %d, want 0", offset)
			}
			rec := httptest.NewRecorder()
			real.ServeHTTP(rec, r)
			w.Write(rec.Body.Bytes()[:staleCursor/2]) // a log shorter than the cursor was
			return true
		}
		return false
	}
	_, ts := newWorker(t, feed.wrap)
	co, err := NewCoordinator(filepath.Join(t.TempDir(), "coord"), Config{
		Workers:       []string{ts.URL},
		Shards:        1,
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
	waitStatus(t, co, f.ID, store.StatusDone, 120*time.Second)

	feed.mu.Lock()
	reached := stage
	feed.mu.Unlock()
	if reached != 2 {
		t.Fatalf("the log swap never played out (stage %d)", reached)
	}
	for _, sh := range f.Shards() {
		if sh.Attempt != 0 {
			t.Fatalf("shard %d was re-run %d times; a 416 should only cost a re-fetch", sh.Index, sh.Attempt)
		}
	}
	if !bytes.Equal(mustReport(t, co, f.ID), want) {
		t.Fatal("fleet report after a replaced log differs from single-box reference")
	}
}

// TestFleetCoordinatorBounceRefetchesOnce bounces the coordinator while a
// shard is mid-flight with a non-zero cursor. The cursor is not persisted:
// the restarted coordinator re-attaches to the same remote campaign,
// fetches its log from 0 exactly once, follows it incrementally from
// there, and the merged report stays byte-identical.
func TestFleetCoordinatorBounceRefetchesOnce(t *testing.T) {
	spec := testSpec(3000)
	want := singleBoxReport(t, spec)

	var feed feedLog
	_, ts := newWorker(t, feed.wrap)
	cfg := Config{
		Workers:       []string{ts.URL},
		Shards:        1,
		WorkerTimeout: 30 * time.Second,
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
	deadline := time.Now().Add(60 * time.Second)
	for {
		fetches := feed.snapshot()
		if n := len(fetches); n > 0 && fetches[n-1].offset > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the feed never advanced its cursor before the bounce")
		}
		time.Sleep(time.Millisecond)
	}
	co1.Shutdown()
	if f.sw.Completed() == f.sw.Total() {
		t.Skip("the shard finished before the bounce; nothing was mid-flight")
	}
	preBounce := len(feed.snapshot())

	co2, err := NewCoordinator(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co2.Shutdown)
	waitStatus(t, co2, f.ID, store.StatusDone, 120*time.Second)

	fetches := feed.snapshot()
	remote := fetches[0].remote
	fromZero := 0
	for _, ft := range fetches[preBounce:] {
		if ft.remote != remote {
			t.Fatalf("after the bounce the coordinator fetched campaign %s, not the in-flight %s: the shard was resubmitted", ft.remote, remote)
		}
		if ft.offset == 0 {
			fromZero++
		}
	}
	if fromZero != 1 {
		t.Fatalf("%d whole-log fetches after the bounce, want exactly 1 (the re-attach)", fromZero)
	}
	if !bytes.Equal(mustReport(t, co2, f.ID), want) {
		t.Fatal("fleet report after a mid-shard bounce differs from single-box reference")
	}
}

// TestFleetBadFeedRetriesShard feeds the coordinator a log it cannot use —
// a payload that is no record, then a record outside the fleet's grid. The
// worker answered, so it must not be reported lost (nor the drive wait out
// WorkerTimeout): the failed syncs are counted, the shard re-runs as a new
// remote campaign, and the fleet finishes with the right report.
func TestFleetBadFeedRetriesShard(t *testing.T) {
	alien, err := json.Marshal(store.Record{
		Cell: campaign.CellKey{Topology: "grid", Regime: "quiescent", Engine: "sim"}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"undecodable":  []byte(`["not", "a", "record"]`),
		"outside-grid": alien,
	} {
		t.Run(name, func(t *testing.T) {
			spec := testSpec(40)
			want := singleBoxReport(t, spec)

			var feed feedLog
			var poisoned string // the first remote campaign: every fetch of it is bad
			feed.intercept = func(w http.ResponseWriter, r *http.Request, offset int64, real http.Handler) bool {
				remote := remoteOf(r.URL.Path)
				if poisoned == "" {
					poisoned = remote
				}
				if remote != poisoned {
					return false
				}
				w.Write(frame(payload))
				return true
			}
			_, ts := newWorker(t, feed.wrap)
			co, err := NewCoordinator(filepath.Join(t.TempDir(), "coord"), Config{
				Workers:       []string{ts.URL},
				Shards:        1,
				WorkerTimeout: 30 * time.Second, // a drive that waits this out fails the test's deadline
				Logger:        testLogger(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(co.Shutdown)

			syncErrors := mSyncErrors.Load()
			f, err := co.Submit(spec, "test")
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, co, f.ID, store.StatusDone, 20*time.Second)

			if mSyncErrors.Load() == syncErrors {
				t.Fatal("cliffedge_fleet_sync_errors_total did not count the failed syncs")
			}
			if sh := f.Shards()[0]; sh.Attempt == 0 {
				t.Fatal("the shard was never re-run")
			}
			co.wmu.Lock()
			lost := co.workers[0].lost
			co.wmu.Unlock()
			if lost {
				t.Fatal("a worker that answered every request was marked lost")
			}
			if !bytes.Equal(mustReport(t, co, f.ID), want) {
				t.Fatal("fleet report after a bad feed differs from single-box reference")
			}
		})
	}
}

// TestCoordinatorRetiresFinishedFleets runs one fleet more than the
// coordinator keeps in memory: the oldest leaves the map and is served —
// status, report, terminal event — from the store.
func TestCoordinatorRetiresFinishedFleets(t *testing.T) {
	_, ts := newWorker(t, nil)
	co, err := NewCoordinator(filepath.Join(t.TempDir(), "coord"), Config{
		Workers:       []string{ts.URL},
		WorkerTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)

	spec := testSpec(2)
	var ids []string
	for i := 0; i <= serve.HistoryLimit; i++ {
		f, err := co.Submit(spec, "test")
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, co, f.ID, store.StatusDone, 60*time.Second)
		ids = append(ids, f.ID)
	}
	first, last := ids[0], ids[len(ids)-1]
	for deadline := time.Now().Add(10 * time.Second); co.Fleet(first) != nil; {
		if time.Now().After(deadline) {
			t.Fatalf("fleet %s still in memory after %d finished fleets", first, len(ids))
		}
		time.Sleep(time.Millisecond) // the run loop retires after the manifest turns done
	}
	kept := 0
	for _, id := range ids {
		if co.Fleet(id) != nil {
			kept++
		}
	}
	if kept > serve.HistoryLimit {
		t.Fatalf("coordinator holds %d fleets, want at most %d", kept, serve.HistoryLimit)
	}
	f := co.Fleet(last)
	if f == nil {
		t.Fatalf("the newest fleet %s was retired", last)
	}

	api := httptest.NewServer(NewServer(co).Handler())
	defer api.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(api.URL + "/api/v1/fleets/" + first + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s of a retired fleet: %s: %s", path, resp.Status, body.Bytes())
		}
		return body.Bytes()
	}
	var info fleetInfo
	if err := json.Unmarshal(get(""), &info); err != nil {
		t.Fatal(err)
	}
	if info.Status != store.StatusDone || info.Total == 0 || info.Completed != info.Total {
		t.Fatalf("retired fleet status = %+v", info)
	}
	if !bytes.Equal(get("/report.json"), mustReport(t, co, first)) {
		t.Fatal("retired fleet's report differs from the stored one")
	}
	if events := get("/events"); !bytes.Contains(events, []byte("event: done")) {
		t.Fatalf("retired fleet's event stream has no terminal event: %s", events)
	}
}
