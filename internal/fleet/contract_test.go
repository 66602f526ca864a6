package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cliffedge/internal/obs"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

// contractTarget is one backend behind the campaign-resource HTTP layer.
type contractTarget struct {
	noun string // the resource is served under /api/v1/<noun>s
	// start brings the backend up over the target's directory — again
	// after stop, which is a restart — and returns its base URL.
	start func(t *testing.T) (base string, stop func())
	// detailKeys are the keys the single-resource status document adds to
	// the list entry's.
	detailKeys []string
}

// TestHTTPContract runs the same cases against a serve.Server and a
// fleet.Coordinator (over one in-process worker): the wire protocol is one
// implementation mounted twice, so everything but the noun, the ID prefix
// and the fleet's extra status fields must agree — down to the bytes of
// report.json for the same spec.
func TestHTTPContract(t *testing.T) {
	serveDir := filepath.Join(t.TempDir(), "serve")
	campaigns := contractTarget{
		noun: "campaign",
		start: func(t *testing.T) (string, func()) {
			srv, err := serve.NewServer(serveDir, serve.Config{
				Workers: 2, MaxPerClient: 64, Logger: testLogger(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			return ts.URL, func() { ts.Close(); srv.Shutdown() }
		},
	}

	_, worker := newWorker(t, nil)
	coordDir := filepath.Join(t.TempDir(), "coord")
	var co *Coordinator
	fleets := contractTarget{
		noun: "fleet",
		start: func(t *testing.T) (string, func()) {
			var err error
			co, err = NewCoordinator(coordDir, Config{
				Workers: []string{worker.URL}, Shards: 4,
				WorkerTimeout: 30 * time.Second, Logger: testLogger(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewServer(co).Handler())
			return ts.URL, func() { ts.Close(); co.Shutdown() }
		},
		detailKeys: []string{"shards"},
	}

	reports := make(map[string][]byte)
	for _, tg := range []contractTarget{campaigns, fleets} {
		t.Run(tg.noun+"s", func(t *testing.T) {
			base, stop := tg.start(t)
			defer func() { stop() }()
			c := &contractClient{t: t, base: base, root: base + "/api/v1/" + tg.noun + "s"}
			reports[tg.noun] = c.run(tg, func() {
				stop()
				base, stop = tg.start(t)
				c.base, c.root = base, base+"/api/v1/"+tg.noun+"s"
			})
			if tg.noun != "fleet" {
				return
			}

			// A worker-style campaign in the coordinator's directory is
			// not the coordinator's to list.
			sw, err := serve.Create(co.Store(), "c000001", "t", testCreated, testSpec(2))
			if err != nil {
				t.Fatal(err)
			}
			sw.Close()
			for _, id := range c.listIDs() {
				if !strings.HasPrefix(id, "f") {
					t.Fatalf("the fleet list shows the foreign ID %s", id)
				}
			}

			// A coordinator that is shutting down says so; the spec is fine.
			co.Shutdown()
			body, _ := json.Marshal(testSpec(4))
			code, _, out := c.do("POST", c.root, nil, body)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("submit to a closing coordinator: %d %s, want 503", code, out)
			}
		})
	}
	if !bytes.Equal(reports["campaign"], reports["fleet"]) {
		t.Fatal("report.json for the same spec differs between /campaigns and /fleets")
	}
}

// contractClient drives one backend over HTTP.
type contractClient struct {
	t    *testing.T
	root string // base + /api/v1/<noun>s
	base string
}

func (c *contractClient) do(method, url string, hdr map[string]string, body []byte) (int, http.Header, []byte) {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header, out
}

// get expects a 200 with the given content type.
func (c *contractClient) get(url, contentType string) []byte {
	c.t.Helper()
	code, hdr, body := c.do("GET", url, nil, nil)
	if code != http.StatusOK || hdr.Get("Content-Type") != contentType {
		c.t.Fatalf("GET %s: %d %q, want 200 %q: %.200s", url, code, hdr.Get("Content-Type"), contentType, body)
	}
	return body
}

func (c *contractClient) submit(seeds int) (id string, total int) {
	c.t.Helper()
	body, _ := json.Marshal(testSpec(seeds))
	code, _, out := c.do("POST", c.root, map[string]string{"X-Client-ID": "contract"}, body)
	var doc struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Total  int    `json:"total"`
	}
	if err := json.Unmarshal(out, &doc); code != http.StatusCreated || err != nil || doc.ID == "" || doc.Status != "running" {
		c.t.Fatalf("submit: %d %s", code, out)
	}
	return doc.ID, doc.Total
}

// follow reads the resource's event stream from the given cursor until it
// ends, or until limit events came (0: no limit), and requires dense seqs.
// onFirst, if given, runs once the first event has arrived — while the
// stream is certainly attached.
func (c *contractClient) follow(id, query string, hdr map[string]string, after int64, limit int, onFirst ...func()) []serve.Event {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", c.root+"/"+id+"/events"+query, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		c.t.Fatalf("events of %s: %d %q", id, resp.StatusCode, ct)
	}
	var events []serve.Event
	err = serve.ReadSSE(resp.Body, func(ev serve.Event) bool {
		events = append(events, ev)
		if len(events) == 1 && len(onFirst) > 0 {
			onFirst[0]()
		}
		return len(events) != limit
	})
	if err != nil {
		c.t.Fatalf("events of %s: %v", id, err)
	}
	for i, ev := range events {
		if ev.Seq != after+int64(i+1) {
			c.t.Fatalf("events of %s after %d: event %d has seq %d, want dense seqs", id, after, i, ev.Seq)
		}
	}
	return events
}

func (c *contractClient) metric(name string) float64 {
	c.t.Helper()
	_, _, body := c.do("GET", c.base+"/metrics", nil, nil)
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	return samples[name]
}

// settle waits for the SSE gauge to come back to want: streams — the
// test's and, on a coordinator, the drives' on the worker — close a moment
// after their resource ends.
func (c *contractClient) settle(want float64) {
	c.t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got := c.metric("cliffedge_serve_sse_subscribers")
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("cliffedge_serve_sse_subscribers stays at %v, want %v", got, want)
		}
	}
}

// objectKeys returns the keys of a JSON object in document order.
func objectKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %.100s", doc)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func (c *contractClient) listIDs() []string {
	c.t.Helper()
	var ids []string
	for _, entry := range c.list() {
		var info serve.Info
		if err := json.Unmarshal(entry, &info); err != nil {
			c.t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	return ids
}

func (c *contractClient) list() []json.RawMessage {
	c.t.Helper()
	body := c.get(c.root, "application/json")
	var doc map[string][]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		c.t.Fatal(err)
	}
	entries := doc[path.Base(c.root)] // the plural noun
	if len(doc) != 1 || entries == nil {
		c.t.Fatalf("list document: %s", body)
	}
	return entries
}

// run is the contract. restart bounces the backend over its directory. It
// returns report.json of the 40-seed spec.
func (c *contractClient) run(tg contractTarget, restart func()) []byte {
	t := c.t
	baseKeys := []string{"id", "client", "created", "status", "completed", "total"}
	const subscribers = "cliffedge_serve_sse_subscribers"

	// Unknown IDs are a 404 with the error document on every {id} route.
	for _, probe := range []struct{ method, suffix string }{
		{"GET", ""}, {"DELETE", ""}, {"GET", "/events"}, {"GET", "/cells"}, {"GET", "/results"},
		{"GET", "/results?offset=3"}, {"GET", "/report"}, {"GET", "/report.json"}, {"GET", "/report.csv"},
	} {
		code, hdr, body := c.do(probe.method, c.root+"/x999999"+probe.suffix, nil, nil)
		var doc map[string]string
		if code != http.StatusNotFound || hdr.Get("Content-Type") != "application/json" ||
			json.Unmarshal(body, &doc) != nil || doc["error"] == "" || len(doc) != 1 {
			t.Fatalf("%s %s of an unknown ID: %d %s", probe.method, probe.suffix, code, body)
		}
	}
	if entries := c.list(); len(entries) != 0 {
		t.Fatalf("a fresh backend lists %d resources", len(entries))
	}
	idle := c.metric(subscribers)

	// Submit, follow: one result event per job, then the report.
	id, total := c.submit(40)
	if total != 40 {
		t.Fatalf("submit says %d jobs, want 40", total)
	}
	all := c.follow(id, "", nil, 0, 0)
	last := all[len(all)-1]
	if len(all) != total+1 || last.Type != "done" || last.Completed != total || len(last.Report) == 0 {
		t.Fatalf("%d events for %d jobs, ending in %+v", len(all), total, last)
	}
	for _, ev := range all[:total] {
		if ev.Type != "result" || ev.Job == nil {
			t.Fatalf("event %d = %+v, want a result", ev.Seq, ev)
		}
	}
	report := c.get(c.root+"/"+id+"/report.json", "application/json")
	var compact bytes.Buffer // on the wire the event carries the report compacted
	if err := json.Compact(&compact, report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact.Bytes(), last.Report) || !bytes.Equal(report, c.get(c.root+"/"+id+"/report", "application/json")) {
		t.Fatal("the terminal event, /report and /report.json disagree")
	}

	// A finished resource replays from its retained history: hostile
	// cursors from the start, a real one from just behind it, and the last
	// seq ends the stream with nothing (it must not wait for more).
	for _, from := range []struct {
		query string
		hdr   map[string]string
	}{
		{"", map[string]string{"Last-Event-ID": "-1"}},
		{"?since=-1", map[string]string{"Last-Event-ID": "-1"}},
		{"?since=garbage", nil},
		{"", map[string]string{"Last-Event-ID": "garbage"}},
	} {
		if got := c.follow(id, from.query, from.hdr, 0, 0); len(got) != len(all) {
			t.Fatalf("cursor %q %v replayed %d events, want all %d", from.query, from.hdr, len(got), len(all))
		}
	}
	if got := c.follow(id, "?since=3", nil, 3, 0); len(got) != len(all)-3 {
		t.Fatalf("?since=3 replayed %d events, want %d", len(got), len(all)-3)
	}
	cursor := fmt.Sprint(last.Seq)
	if got := c.follow(id, "?since=1", map[string]string{"Last-Event-ID": cursor}, last.Seq, 0); len(got) != 0 {
		t.Fatalf("Last-Event-ID at the terminal seq replayed %d events", len(got))
	}

	// The read routes of a finished resource.
	var cells struct {
		ID     string            `json:"id"`
		Cells  []json.RawMessage `json:"cells"`
		Totals json.RawMessage   `json:"totals"`
	}
	body := c.get(c.root+"/"+id+"/cells", "application/json")
	if err := json.Unmarshal(body, &cells); err != nil || cells.ID != id || len(cells.Cells) != 1 ||
		!slices.Equal(objectKeys(t, body), []string{"cells", "id", "totals"}) {
		t.Fatalf("cells: %s", body)
	}
	csv := c.get(c.root+"/"+id+"/report.csv", "text/csv; charset=utf-8")
	if !bytes.HasPrefix(csv, []byte("topology,regime,engine")) || bytes.Count(csv, []byte("\n")) != 2 {
		t.Fatalf("report.csv: %s", csv)
	}
	log := c.get(c.root+"/"+id+"/results", "application/octet-stream")
	if recs, err := store.DecodeRecords(bytes.NewReader(log)); err != nil || len(recs) != total {
		t.Fatalf("/results decodes to %d records (err %v), want %d", len(recs), err, total)
	}
	for _, tc := range []struct {
		query string
		code  int
		want  []byte
	}{
		{"?offset=0", http.StatusOK, log},
		{"?offset=100", http.StatusOK, log[100:]},
		{fmt.Sprintf("?offset=%d", len(log)), http.StatusOK, nil},
		{fmt.Sprintf("?offset=%d", len(log)+1), http.StatusRequestedRangeNotSatisfiable, nil},
		{"?offset=-1", http.StatusBadRequest, nil},
		{"?offset=abc", http.StatusBadRequest, nil},
		{"?offset=", http.StatusBadRequest, nil},
	} {
		code, _, got := c.do("GET", c.root+"/"+id+"/results"+tc.query, nil, nil)
		if code != tc.code || (code == http.StatusOK && !bytes.Equal(got, tc.want)) {
			t.Fatalf("GET results%s: %d with %d bytes, want %d with %d", tc.query, code, len(got), tc.code, len(tc.want))
		}
	}

	// Status and list documents: keys in order; the single view adds the
	// backend's detail.
	status := c.get(c.root+"/"+id, "application/json")
	if got, want := objectKeys(t, status), append(slices.Clone(baseKeys), tg.detailKeys...); !slices.Equal(got, want) {
		t.Fatalf("status keys %v, want %v", got, want)
	}
	var info serve.Info
	if err := json.Unmarshal(status, &info); err != nil || info.ID != id || info.Client != "contract" ||
		info.Status != store.StatusDone || info.Completed != total || info.Total != total {
		t.Fatalf("status: %s", status)
	}
	entries := c.list()
	if len(entries) != 1 || !slices.Equal(objectKeys(t, entries[0]), baseKeys) {
		t.Fatalf("list: %s", entries)
	}

	// A subscriber that drops mid-stream and reconnects from its cursor
	// sees every event exactly once, and counts on the SSE series.
	replays := c.metric("cliffedge_serve_sse_replays_total")
	running, runTotal := c.submit(3000)
	head := c.follow(running, "", nil, 0, 5)
	if len(head) != 5 {
		t.Fatalf("read %d events before dropping the stream, want 5", len(head))
	}
	tail := c.follow(running, "", map[string]string{"Last-Event-ID": "5"}, 5, 0, func() {
		// The stream stays attached until the sweep ends — unless it
		// already has, and then the return to idle below is all there is.
		if got := c.metric(subscribers); got < idle+1 {
			if st := c.get(c.root+"/"+running, "application/json"); !bytes.Contains(st, []byte(`"status": "done"`)) {
				t.Fatalf("%s = %v with a subscriber attached, idle was %v", subscribers, got, idle)
			}
		}
	})
	if len(head)+len(tail) != runTotal+1 || tail[len(tail)-1].Type != "done" {
		t.Fatalf("reconnect: %d + %d events for %d jobs", len(head), len(tail), runTotal)
	}
	if got := c.metric("cliffedge_serve_sse_replays_total"); got < replays+1 {
		t.Fatalf("cliffedge_serve_sse_replays_total went %v -> %v over a reconnect", replays, got)
	}
	c.settle(idle)

	// DELETE: 202 while running, the stream ends in "cancelled", then 409.
	doomed, _ := c.submit(20000)
	code, _, body := c.do("DELETE", c.root+"/"+doomed, nil, nil)
	if code != http.StatusAccepted || !slices.Equal(objectKeys(t, body), []string{"id", "status"}) {
		t.Fatalf("DELETE of a running %s: %d %s", tg.noun, code, body)
	}
	streamed := c.follow(doomed, "", nil, 0, 0)
	if len(streamed) == 0 || streamed[len(streamed)-1].Type != "cancelled" {
		t.Fatalf("a cancelled %s's stream ended after %d events without \"cancelled\"", tg.noun, len(streamed))
	}
	if code, _, body := c.do("DELETE", c.root+"/"+doomed, nil, nil); code != http.StatusConflict {
		t.Fatalf("second DELETE: %d %s, want 409", code, body)
	}
	if code, _, _ := c.do("GET", c.root+"/"+doomed+"/report.json", nil, nil); code != http.StatusNotFound {
		t.Fatalf("report of a cancelled %s: %d, want 404", tg.noun, code)
	}
	c.settle(idle)

	// After a restart the history is gone: one synthesized terminal event
	// at the cursor, and the store keeps serving status and report.
	restart()
	for _, since := range []int64{0, 7} {
		got := c.follow(id, fmt.Sprintf("?since=%d", since), nil, since, 0)
		if len(got) != 1 || got[0].Type != "done" || !bytes.Equal(got[0].Report, compact.Bytes()) {
			t.Fatalf("after a restart ?since=%d streamed %d events: %+v", since, len(got), got)
		}
	}
	if got := c.follow(doomed, "", nil, 0, 0); len(got) != 1 || got[0].Type != "cancelled" {
		t.Fatalf("after a restart the cancelled %s streamed %+v", tg.noun, got)
	}
	if err := json.Unmarshal(c.get(c.root+"/"+id, "application/json"), &info); err != nil ||
		info.Status != store.StatusDone || info.Completed != total || info.Total != total {
		t.Fatalf("status after a restart: %+v", info)
	}
	if !bytes.Equal(c.get(c.root+"/"+id+"/report.json", "application/json"), report) {
		t.Fatal("report.json changed over a restart")
	}
	if ids := c.listIDs(); len(ids) != 3 {
		t.Fatalf("list after a restart: %v", ids)
	}
	return report
}
