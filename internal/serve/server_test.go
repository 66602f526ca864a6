package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cliffedge/internal/campaign"
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

func newTestServer(t *testing.T, dir string, workers, maxPerClient int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(dir, Config{
		Workers:      workers,
		MaxPerClient: maxPerClient,
		Logger:       testLogger(t),
		now:          func() time.Time { return testCreated },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func submitCampaign(t *testing.T, base, client string, seeds int) (id string, total int) {
	t.Helper()
	body, _ := json.Marshal(testSpec(seeds))
	req, _ := http.NewRequest("POST", base+"/api/v1/campaigns", bytes.NewReader(body))
	req.Header.Set("X-Client-ID", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var out struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, out.Total
}

// followSSE subscribes to the campaign's event stream starting after
// lastEventID and collects events until the terminal one (or failure).
func followSSE(t *testing.T, base, id string, lastEventID int64) []Event {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/api/v1/campaigns/"+id+"/events", nil)
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("events: content-type %q: %s", ct, b)
	}
	var events []Event
	err = ReadSSE(resp.Body, func(ev Event) bool {
		events = append(events, ev)
		return !ev.Terminal()
	})
	if err != nil {
		t.Fatalf("SSE stream for %s: %v", id, err)
	}
	if len(events) == 0 || !events[len(events)-1].Terminal() {
		t.Fatalf("SSE stream for %s ended without a terminal event (%d events)", id, len(events))
	}
	return events
}

// TestServerConcurrentClients is the tentpole's concurrency proof: eight
// clients submit campaigns at once against a shared fair-share pool; every
// subscriber receives each of its campaign's result events exactly once
// (dense seqs, one per job) followed by a terminal report, and no run in
// the whole fleet reports a checker violation.
func TestServerConcurrentClients(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 4, 2)
	defer srv.Shutdown()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, total := submitCampaign(t, ts.URL, fmt.Sprintf("client-%d", i), 3)
			events := followSSE(t, ts.URL, id, 0)
			results := events[:len(events)-1]
			last := events[len(events)-1]
			if len(results) != total {
				errs <- fmt.Errorf("campaign %s: %d result events, want %d", id, len(results), total)
				return
			}
			for k, ev := range results {
				if ev.Seq != int64(k+1) || ev.Type != "result" || ev.Job == nil {
					errs <- fmt.Errorf("campaign %s: event %d = %+v", id, k, ev)
					return
				}
			}
			if last.Type != "done" || len(last.Report) == 0 {
				errs <- fmt.Errorf("campaign %s: terminal event = %+v", id, last)
				return
			}
			if last.TotalViolations != 0 || last.TotalErrors != 0 {
				errs <- fmt.Errorf("campaign %s: %d violations, %d errors",
					id, last.TotalViolations, last.TotalErrors)
				return
			}
			if last.Completed != total {
				errs <- fmt.Errorf("campaign %s: terminal shows %d/%d", id, last.Completed, total)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerSSEReconnect pins Last-Event-ID replay: a subscriber that
// reconnects mid-stream sees exactly the events after its cursor, never a
// duplicate, never a gap.
func TestServerSSEReconnect(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 2, 4)
	defer srv.Shutdown()

	id, total := submitCampaign(t, ts.URL, "reconnector", 4)
	all := followSSE(t, ts.URL, id, 0)
	if len(all) != total+1 {
		t.Fatalf("%d events, want %d", len(all), total+1)
	}
	// "Reconnect" with a cursor in the middle: the replay must start at
	// exactly cursor+1.
	cursor := all[1].Seq
	tail := followSSE(t, ts.URL, id, cursor)
	if len(tail) != len(all)-2 {
		t.Fatalf("reconnect replayed %d events, want %d", len(tail), len(all)-2)
	}
	for i, ev := range tail {
		if ev.Seq != cursor+int64(i+1) {
			t.Fatalf("reconnect event %d has seq %d, want %d", i, ev.Seq, cursor+int64(i+1))
		}
	}
}

// TestServerRestartResumes is the service-level recovery proof: a server
// stopped mid-sweep (scheduler aborted, manifests left running — the
// in-process equivalent of SIGKILL, which the CI smoke test performs for
// real) restarts, resumes the sweep, and the final report is
// byte-identical to an uninterrupted run of the same spec.
func TestServerRestartResumes(t *testing.T) {
	spec := testSpec(10)
	want := runClean(t, spec)

	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, dir, 1, 4)
	// Park the single worker on a task that only ends at shutdown, so the
	// submitted campaign deterministically stays mid-sweep.
	srv1.sched.Submit(&campaign.Task{
		ID:   "parked",
		Jobs: []campaign.Job{{Cell: campaign.CellKey{Topology: "x", Regime: "r", Engine: "sim"}}},
		Run: func(ctx context.Context, job campaign.Job) campaign.RunStats {
			<-ctx.Done()
			return campaign.RunStats{Err: ctx.Err().Error()}
		},
	})

	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", ts1.URL+"/api/v1/campaigns", bytes.NewReader(body))
	req.Header.Set("X-Client-ID", "restart")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()

	// Complete part of the sweep through its own commit path (the worker
	// is parked, so nothing races), then stop the server abruptly —
	// Shutdown aborts in-flight runs without finishing the sweep.
	sw := srv1.Sweep(out.ID)
	if sw == nil {
		t.Fatal("campaign not active")
	}
	ctx := context.Background()
	for _, j := range sw.Remaining()[:3] {
		if err := sw.Commit(j, sw.RunJob(ctx, j), true); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Shutdown()
	ts1.Close()

	srv2, ts2 := newTestServer(t, dir, 2, 4)
	defer srv2.Shutdown()
	events := followSSE(t, ts2.URL, out.ID, 0)
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("resumed campaign ended with %q", last.Type)
	}

	resp, err = http.Get(ts2.URL + "/api/v1/campaigns/" + out.ID + "/report.json")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted report:\n got: %.400s\nwant: %.400s", got, want)
	}
}

// TestServerRestartFinalizesCompleted covers the narrowest crash window:
// every job of the sweep committed, but the crash hit before Finish wrote
// the report and flipped the manifest. The restarted server must detect
// the fully-committed sweep (an empty task) and finalize it immediately —
// with a report byte-identical to an uninterrupted run — rather than
// leaving its manifest "running" forever.
func TestServerRestartFinalizesCompleted(t *testing.T) {
	spec := testSpec(4)
	want := runClean(t, spec)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Create(st, "c000001", "finisher", testCreated, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, j := range sw.Remaining() {
		if err := sw.Commit(j, sw.RunJob(ctx, j), true); err != nil {
			t.Fatal(err)
		}
	}
	sw.Close() // "crash": all results durable, Finish never ran

	srv, ts := newTestServer(t, dir, 1, 4)
	defer srv.Shutdown()
	events := followSSE(t, ts.URL, "c000001", 0)
	if last := events[len(events)-1]; last.Type != "done" {
		t.Fatalf("finalized campaign ended with %q, want done", last.Type)
	}
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/c000001/report.json")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, want) {
		t.Fatalf("finalized report differs from uninterrupted report:\n got: %.400s\nwant: %.400s", got, want)
	}
}

// TestServerClientLimit pins per-client admission: the limit counts only
// that client's active campaigns, and other clients are unaffected. The
// busy client is simulated by seeding the owner table directly — real
// sweeps finish too fast to hold the slot open deterministically.
func TestServerClientLimit(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 1, 1)
	defer srv.Shutdown()

	srv.mu.Lock()
	srv.owner["c999990"] = "greedy"
	srv.mu.Unlock()

	body, _ := json.Marshal(testSpec(2))
	req, _ := http.NewRequest("POST", ts.URL+"/api/v1/campaigns", bytes.NewReader(body))
	req.Header.Set("X-Client-ID", "greedy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: %s, want 429", resp.Status)
	}

	// A different client is admitted and completes despite greedy's slot.
	id2, _ := submitCampaign(t, ts.URL, "modest", 2)
	events := followSSE(t, ts.URL, id2, 0)
	if events[len(events)-1].Type != "done" {
		t.Fatalf("modest client's campaign ended with %q", events[len(events)-1].Type)
	}

	// Freeing greedy's slot readmits it.
	srv.mu.Lock()
	delete(srv.owner, "c999990")
	srv.mu.Unlock()
	id3, _ := submitCampaign(t, ts.URL, "greedy", 2)
	if followSSE(t, ts.URL, id3, 0)[2].Type != "done" {
		t.Fatalf("readmitted campaign did not finish")
	}
}

// TestServerCancelLifecycle pins DELETE semantics: cancelling marks the
// manifest cancelled, streams a terminal "cancelled" event, and a
// restarted server does not resume the campaign.
func TestServerCancelLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir, 1, 4)

	id, _ := submitCampaign(t, ts.URL, "canceller", 500)
	req, _ := http.NewRequest("DELETE", ts.URL+"/api/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s, want 202", resp.Status)
	}
	events := followSSE(t, ts.URL, id, 0)
	if events[len(events)-1].Type != "cancelled" {
		t.Fatalf("stream ended with %q, want cancelled", events[len(events)-1].Type)
	}

	// Second DELETE: no longer active.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel: %s, want 409", resp.Status)
	}

	srv.Shutdown()
	ts.Close()

	srv2, ts2 := newTestServer(t, dir, 1, 4)
	defer srv2.Shutdown()
	if srv2.Sweep(id) != nil {
		t.Fatal("restarted server resumed a cancelled campaign")
	}
	resp, err = http.Get(ts2.URL + "/api/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Status != "cancelled" {
		t.Fatalf("status after restart = %q, want cancelled", info.Status)
	}
}

// TestServerEndpoints covers the remaining surface: healthz, list,
// status, report.csv and 404s.
func TestServerEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 2, 4)
	defer srv.Shutdown()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	id, total := submitCampaign(t, ts.URL, "lister", 3)
	followSSE(t, ts.URL, id, 0) // wait until done

	resp, err = http.Get(ts.URL + "/api/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Campaigns []Info `json:"campaigns"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != id {
		t.Fatalf("list = %+v", list)
	}
	if c := list.Campaigns[0]; c.Status != "done" || c.Completed != total || c.Total != total {
		t.Fatalf("listed campaign = %+v", c)
	}

	resp, err = http.Get(ts.URL + "/api/v1/campaigns/" + id + "/report.csv")
	if err != nil {
		t.Fatal(err)
	}
	csvBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(csvBody), "topology,regime,engine") {
		t.Fatalf("csv = %.120s", csvBody)
	}
	lines := strings.Count(strings.TrimSpace(string(csvBody)), "\n") + 1
	if lines != 2 { // header + the single ring/quiescent/sim cell
		t.Fatalf("csv has %d lines, want 2:\n%s", lines, csvBody)
	}

	// A hostile negative cursor must not panic the SSE handler: the
	// stream replays from the start.
	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/campaigns/"+id+"/events?since=-1", nil)
	req.Header.Set("Last-Event-ID", "-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	negBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(negBody), "event: done") {
		t.Fatalf("events with negative cursor: %s\n%.200s", resp.Status, negBody)
	}

	for _, path := range []string{
		"/api/v1/campaigns/c999999",
		"/api/v1/campaigns/c999999/report",
		"/api/v1/campaigns/bogus%2Fid",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %s, want 404", path, resp.Status)
		}
	}
}

// TestServerCellsAndResults covers the two fleet-facing read endpoints:
// /cells serves the per-cell partial report of a finished (or running)
// campaign, and /results serves the raw CRC-framed result log whose clean
// prefix decodes to exactly one record per completed job.
func TestServerCellsAndResults(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 2, 4)
	defer srv.Shutdown()

	id, total := submitCampaign(t, ts.URL, "fleet-f000001", 4)
	followSSE(t, ts.URL, id, 0) // wait until done

	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + id + "/cells")
	if err != nil {
		t.Fatal(err)
	}
	var cells struct {
		ID     string                 `json:"id"`
		Cells  []campaign.CellReport  `json:"cells"`
		Totals map[string]interface{} `json:"totals"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cells)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cells.ID != id || len(cells.Cells) != 1 {
		t.Fatalf("cells = %+v", cells)
	}
	if got := cells.Cells[0].Runs; got != total {
		t.Fatalf("cell reports %d runs, want %d", got, total)
	}

	resp, err = http.Get(ts.URL + "/api/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("results content-type = %q", ct)
	}
	recs, err := store.DecodeRecords(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != total {
		t.Fatalf("result log decodes to %d records, want %d", len(recs), total)
	}
	seen := make(map[campaign.Job]bool)
	for _, rec := range recs {
		if seen[rec.Job()] {
			t.Fatalf("duplicate record for %v", rec.Job())
		}
		seen[rec.Job()] = true
	}

	for _, path := range []string{
		"/api/v1/campaigns/c999999/cells",
		"/api/v1/campaigns/c999999/results",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %s, want 404", path, resp.Status)
		}
	}
}

// getResults fetches /results with the given raw query ("" for none) and
// returns the status and body.
func getResults(t *testing.T, base, id, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/campaigns/" + id + "/results" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServerResultsOffset pins the merge feed's cursor contract: no offset
// is the whole log byte for byte, ?offset=N is its suffix from byte N, the
// exact end is an empty 200 (nothing new yet), past the end is a 416 (not
// the log the caller was following) and a malformed offset a 400.
func TestServerResultsOffset(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 2, 4)
	defer srv.Shutdown()

	id, total := submitCampaign(t, ts.URL, "fleet-f000001", 6)
	followSSE(t, ts.URL, id, 0) // wait until done

	path, err := srv.st.File(id, "results.log")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The first frame's end: an 8-byte header whose first word is the
	// payload length.
	mid := 8 + int(binary.LittleEndian.Uint32(raw))

	for _, tc := range []struct {
		query string
		code  int
		want  []byte
	}{
		{"", http.StatusOK, raw},
		{"?offset=0", http.StatusOK, raw},
		{fmt.Sprintf("?offset=%d", mid), http.StatusOK, raw[mid:]},
		{fmt.Sprintf("?offset=%d", len(raw)), http.StatusOK, nil},
		{fmt.Sprintf("?offset=%d", len(raw)+1), http.StatusRequestedRangeNotSatisfiable, nil},
		{"?offset=-1", http.StatusBadRequest, nil},
		{"?offset=abc", http.StatusBadRequest, nil},
		{"?offset=", http.StatusBadRequest, nil},
	} {
		code, body := getResults(t, ts.URL, id, tc.query)
		if code != tc.code {
			t.Errorf("GET results%s: status %d, want %d", tc.query, code, tc.code)
			continue
		}
		if code == http.StatusOK && !bytes.Equal(body, tc.want) {
			t.Errorf("GET results%s: %d bytes, want %d (the log from that offset)", tc.query, len(body), len(tc.want))
		}
	}

	recs, n, err := store.DecodeRecordsN(bytes.NewReader(raw[mid:]))
	if err != nil || len(recs) != total-1 || n != int64(len(raw)-mid) {
		t.Fatalf("log from the first frame boundary: %d records, %d bytes, err %v; want %d, %d",
			len(recs), n, err, total-1, len(raw)-mid)
	}
}

// TestServerResultsOffsetRacesAppender follows a running campaign's log
// the way a fleet coordinator does — fetch from the cursor, decode the
// clean prefix, advance by the bytes it occupied — while the scheduler is
// appending. Whatever a fetch catches mid-append, the cursor protocol must
// deliver every record exactly once.
func TestServerResultsOffsetRacesAppender(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir(), 2, 4)
	defer srv.Shutdown()

	id, total := submitCampaign(t, ts.URL, "fleet-f000001", 400)

	seen := make(map[campaign.Job]bool)
	var offset int64
	fetches := 0
	pull := func() {
		code, body := getResults(t, ts.URL, id, fmt.Sprintf("?offset=%d", offset))
		if code != http.StatusOK {
			t.Fatalf("offset %d: status %d", offset, code)
		}
		recs, n, err := store.DecodeRecordsN(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("offset %d: %v", offset, err)
		}
		for _, rec := range recs {
			if seen[rec.Job()] {
				t.Fatalf("offset %d: %v delivered twice", offset, rec.Job())
			}
			seen[rec.Job()] = true
		}
		offset += n
		fetches++
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		m, err := srv.st.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		pull() // the pull after the status turned done picks up the tail
		if m.Status == store.StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still %s after %d fetches", m.Status, fetches)
		}
	}
	if len(seen) != total {
		t.Fatalf("cursor delivered %d of %d records over %d fetches", len(seen), total, fetches)
	}
	if code, body := getResults(t, ts.URL, id, fmt.Sprintf("?offset=%d", offset)); code != http.StatusOK || len(body) != 0 {
		t.Fatalf("final cursor %d: status %d, %d bytes; want an empty 200", offset, code, len(body))
	}
}
