package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/fleet"
	"cliffedge/internal/serve"
)

var quiet = slog.New(slog.DiscardHandler)

// listener is one loopback HTTP server of the harness.
type listener struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns on Close; the error is always ErrServerClosed
	}()
	return l, nil
}

// close drops every connection (SSE streams included) and waits for the
// accept loop to exit.
func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// env is a running system under test: the API to drive plus what must be
// torn down. api is the resource collection sweeps are posted to.
type env struct {
	base   string // http://127.0.0.1:port
	api    string // "/api/v1/campaigns" or "/api/v1/fleets"
	layer  string // span layer of the HTTP calls: "serve" or "fleet"
	dir    string
	client *http.Client
	stop   []func() // run in reverse order
}

func (e *env) close() {
	e.client.CloseIdleConnections()
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	os.RemoveAll(e.dir)
}

// startServe brings up one serve.Server with the given pool on a fresh
// store under work, behind a loopback listener.
func startServe(work string, pool int) (*env, error) {
	dir, err := os.MkdirTemp(work, "serve-*")
	if err != nil {
		return nil, err
	}
	e := &env{api: "/api/v1/campaigns", layer: "serve", dir: dir, client: &http.Client{}}
	if err := e.addServe(dir, pool); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// addServe starts a serve.Server on dir and points e.base at it.
func (e *env) addServe(dir string, pool int) error {
	srv, err := serve.NewServer(dir, serve.Config{Workers: pool, Logger: quiet})
	if err != nil {
		return err
	}
	e.stop = append(e.stop, srv.Shutdown)
	l, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	e.stop = append(e.stop, l.close)
	e.base = l.url
	return nil
}

// startFleet brings up `workers` serve.Servers (pool 1 each) and a
// fleet.Coordinator with default Shards/SyncEvery/PerWorker over them,
// behind fleet.NewServer on a loopback listener. rt, if non-nil,
// replaces the coordinator's HTTP transport (the traced run counts
// fetched bytes with it).
func startFleet(work string, workers int, rt http.RoundTripper) (*env, error) {
	dir, err := os.MkdirTemp(work, "fleet-*")
	if err != nil {
		return nil, err
	}
	e := &env{api: "/api/v1/fleets", layer: "fleet", dir: dir, client: &http.Client{}}
	var urls []string
	for i := 0; i < workers; i++ {
		if err := e.addServe(filepath.Join(dir, "worker"+strconv.Itoa(i)), 1); err != nil {
			e.close()
			return nil, err
		}
		urls = append(urls, e.base)
	}
	cfg := fleet.Config{Workers: urls, Logger: quiet}
	if rt != nil {
		cfg.Client = &http.Client{Transport: rt}
	}
	co, err := fleet.NewCoordinator(filepath.Join(dir, "coord"), cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.stop = append(e.stop, co.Shutdown)
	l, err := listen(fleet.NewServer(co).Handler())
	if err != nil {
		e.close()
		return nil, err
	}
	e.stop = append(e.stop, l.close)
	e.base = l.url
	return e, nil
}

// sweepResult is what one POST -> SSE -> report.json operation observed.
type sweepResult struct {
	id       string
	total    int
	started  time.Time // before the POST
	first    time.Time // first result event read
	reported time.Time // report.json body read
	events   int       // SSE events, terminal included
	report   []byte
}

// wall is the operation's end-to-end time: POST sent -> report body read.
func (r sweepResult) wall() time.Duration { return r.reported.Sub(r.started) }

// sweep submits spec, follows its event stream to "done" checking that
// ids are dense from 1 and every job reports exactly once with no errors
// or violations, then fetches report.json. tr may be nil.
func (e *env) sweep(spec cliffedge.CampaignSpec, clientID string, tr *tracer, op int) (sweepResult, error) {
	res := sweepResult{started: time.Now()}
	root := tr.begin("operation", "bench", op, -1)
	defer tr.end(root)

	sp := tr.begin("http.submit", e.layer, op, root)
	body, err := json.Marshal(spec)
	if err != nil {
		return res, err
	}
	req, err := http.NewRequest(http.MethodPost, e.base+e.api, bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	resp, err := e.client.Do(req)
	if err != nil {
		return res, err
	}
	var created struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode != http.StatusCreated || err != nil { // 429: refused by the admission cap
		return res, fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
	}
	res.id, res.total = created.ID, created.Total

	sp = tr.begin("sse.follow", e.layer, op, root)
	err = e.follow(&res)
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("campaign %s: %w", res.id, err)
	}

	sp = tr.begin("http.report", e.layer, op, root)
	res.report, err = e.get(e.api + "/" + res.id + "/report.json")
	tr.end(sp)
	res.reported = time.Now()
	return res, err
}

// follow reads the campaign's SSE stream to its terminal event.
func (e *env) follow(res *sweepResult) error {
	resp, err := e.client.Get(e.base + e.api + "/" + res.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	seen := make(map[campaign.Job]bool, res.total)
	var id int64
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("event stream ended after id %d: %w", res.events, err)
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("id: ")):
			if id, err = strconv.ParseInt(string(line[4:]), 10, 64); err != nil {
				return err
			}
		case bytes.HasPrefix(line, []byte("data: ")):
			var ev struct {
				Seq             int64         `json:"seq"`
				Type            string        `json:"type"`
				Job             *campaign.Job `json:"job"`
				Completed       int           `json:"completed"`
				Total           int           `json:"total"`
				TotalErrors     int           `json:"total_errors"`
				TotalViolations int           `json:"total_violations"`
			}
			if err := json.Unmarshal(line[6:], &ev); err != nil {
				return err
			}
			res.events++
			if id != int64(res.events) || ev.Seq != id {
				return fmt.Errorf("event ids not dense: event %d has id %d, seq %d", res.events, id, ev.Seq)
			}
			switch ev.Type {
			case "result":
				if res.events == 1 {
					res.first = time.Now()
				}
				if ev.Job == nil || seen[*ev.Job] {
					return fmt.Errorf("event %d: job missing or reported twice", id)
				}
				seen[*ev.Job] = true
			case "done":
				if len(seen) != res.total || ev.Completed != res.total || ev.Total != res.total {
					return fmt.Errorf("done after %d of %d jobs (completed %d)", len(seen), res.total, ev.Completed)
				}
				if ev.TotalErrors != 0 || ev.TotalViolations != 0 {
					return fmt.Errorf("%d run errors, %d violations", ev.TotalErrors, ev.TotalViolations)
				}
				return nil
			default:
				return fmt.Errorf("unexpected terminal event %q", ev.Type)
			}
		}
	}
}

func (e *env) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// checkReport verifies a report.json body against the grid size and, when
// want is non-nil, byte for byte against the reference.
func checkReport(got []byte, runs int, want []byte) error {
	var rep campaign.Report
	if err := json.Unmarshal(got, &rep); err != nil {
		return fmt.Errorf("report.json: %w", err)
	}
	if t := rep.Totals; t.Runs != runs || t.Errors != 0 || t.Violations != 0 {
		return fmt.Errorf("report totals %+v, want %d runs, 0 errors, 0 violations", t, runs)
	}
	if want != nil && !bytes.Equal(got, want) {
		return fmt.Errorf("report.json differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}
