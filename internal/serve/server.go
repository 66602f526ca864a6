package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/obs"
	"cliffedge/internal/store"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the shared pool size (≤ 0: GOMAXPROCS via scheduler
	// default of 1? no — the caller resolves; cliffedged passes its flag).
	Workers int
	// MaxPerClient caps a single client's concurrently active campaigns
	// (≤ 0: 4). Clients identify via the X-Client-ID header; without one,
	// the remote address's host is used.
	MaxPerClient int
	// ClusterOptions apply to every run of every sweep — runtime
	// configuration (live tick, latency bands) outside the spec.
	ClusterOptions []cliffedge.Option
	// PersistTraces streams every run's full binary trace into the
	// store's per-campaign traces directory (one file per job, named
	// campaign.Job.TraceName). Like ClusterOptions it is runtime
	// configuration: resumed sweeps inherit the server's current setting.
	PersistTraces bool
	// Logger receives operational log records (nil: Logf if set, else
	// slog.Default).
	Logger *slog.Logger
	// Logf is the legacy printf sink, kept for tests that pass t.Logf;
	// when set (and Logger is nil) it is adapted into a structured
	// logger with obs.LogfLogger.
	Logf func(format string, args ...any)
	// now stamps campaign creation times (tests override; nil: time.Now).
	now func() time.Time
}

// Server is the campaign service: REST submission and lifecycle, SSE
// progress streaming, persistent sweeps resumed at startup. Create one
// with NewServer, mount Handler, and Shutdown on exit — a SIGKILL
// instead merely means the next start resumes every running sweep.
type Server struct {
	st      *store.Store
	sched   *Scheduler
	cfg     Config
	log     *slog.Logger
	started time.Time

	mu     sync.Mutex
	sweeps map[string]*Sweep // active (running) sweeps only
	owner  map[string]string // campaign ID → client, active only
	// history retains the full event stream of recently finished
	// campaigns (bounded FIFO), so a subscriber that arrives after — or
	// reconnects across — completion still replays every event exactly
	// once. Campaigns finished before the last restart stream a single
	// synthesized terminal event instead.
	history    map[string][]Event
	historyIDs []string
	nextID     int
}

// historyLimit bounds how many finished campaigns keep their event
// streams in memory.
const historyLimit = 64

// NewServer opens the store, resumes every campaign whose manifest is
// still "running" (the crash/shutdown leftovers) and starts the shared
// scheduler.
func NewServer(dataDir string, cfg Config) (*Server, error) {
	st, err := store.Open(dataDir)
	if err != nil {
		return nil, err
	}
	if cfg.MaxPerClient <= 0 {
		cfg.MaxPerClient = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	logger := cfg.Logger
	if logger == nil {
		if cfg.Logf != nil {
			logger = obs.LogfLogger(cfg.Logf)
		} else {
			logger = slog.Default()
		}
	}
	s := &Server{
		st:      st,
		sched:   NewScheduler(cfg.Workers),
		cfg:     cfg,
		log:     logger,
		started: time.Now(),
		sweeps:  make(map[string]*Sweep),
		owner:   make(map[string]string),
		history: make(map[string][]Event),
		nextID:  1,
	}
	manifests, err := st.List()
	if err != nil {
		s.sched.Stop()
		return nil, err
	}
	for _, m := range manifests {
		if n := parseID(m.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		if m.Status != store.StatusRunning {
			continue
		}
		extra, err := s.sweepOptions(m.ID)
		if err == nil {
			var sw *Sweep
			if sw, err = Open(st, m.ID, extra...); err == nil {
				s.log.Info("resumed campaign", "campaign", m.ID,
					"completed", sw.Completed(), "total", sw.Total())
				s.submit(sw, m.Client)
				continue
			}
		}
		s.log.Warn("cannot resume campaign", "campaign", m.ID, "err", err)
	}
	return s, nil
}

// sweepOptions assembles the runtime campaign options applied to every
// sweep: the server-wide cluster options, plus — with PersistTraces —
// the store's per-campaign trace directory for this ID.
func (s *Server) sweepOptions(id string) ([]cliffedge.CampaignOption, error) {
	var extra []cliffedge.CampaignOption
	if len(s.cfg.ClusterOptions) > 0 {
		extra = append(extra, cliffedge.WithClusterOptions(s.cfg.ClusterOptions...))
	}
	if s.cfg.PersistTraces {
		dir, err := s.st.TraceDir(id)
		if err != nil {
			return nil, err
		}
		extra = append(extra, cliffedge.WithTraceDir(dir))
	}
	return extra, nil
}

// AllocateID returns the next unused c%06d campaign ID in st — the same
// scheme the server uses, so CLI-created and server-created campaigns
// share one namespace.
func AllocateID(st *store.Store) (string, error) {
	manifests, err := st.List()
	if err != nil {
		return "", err
	}
	n := 0
	for _, m := range manifests {
		if k := parseID(m.ID); k > n {
			n = k
		}
	}
	return fmt.Sprintf("c%06d", n+1), nil
}

// parseID extracts the numeric part of a server-allocated c%06d ID
// (0 for foreign IDs).
func parseID(id string) int {
	if !strings.HasPrefix(id, "c") {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Shutdown stops the scheduler (in-flight runs abort, manifests of
// unfinished sweeps stay "running" for the next start) and closes every
// active sweep's log.
func (s *Server) Shutdown() {
	s.sched.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sw := range s.sweeps {
		sw.Close()
	}
	mActiveSweeps.Add(-int64(len(s.sweeps)))
	s.sweeps = make(map[string]*Sweep)
}

// submit registers the sweep and enters its remaining jobs into the
// fair-share ring.
func (s *Server) submit(sw *Sweep, client string) {
	s.mu.Lock()
	s.sweeps[sw.ID] = sw
	s.owner[sw.ID] = client
	s.mu.Unlock()
	mActiveSweeps.Add(1)
	s.sched.Submit(&Task{
		ID:   sw.ID,
		Jobs: sw.Remaining(),
		Run:  sw.RunJob,
		Commit: func(job campaign.Job, stats campaign.RunStats, persist bool) {
			if err := sw.Commit(job, stats, persist); err != nil {
				s.log.Error("commit failed", "campaign", sw.ID, "err", err)
			}
		},
		Done: func(cancelled bool) {
			var err error
			if cancelled {
				err = sw.Cancel()
			} else {
				err = sw.Finish()
			}
			if err != nil {
				s.log.Error("finish failed", "campaign", sw.ID, "err", err)
			}
			s.log.Info("campaign finished", "campaign", sw.ID,
				"status", map[bool]string{false: "done", true: "cancelled"}[cancelled],
				"completed", sw.Completed(), "total", sw.Total())
			mActiveSweeps.Add(-1)
			evs, _ := sw.EventsSince(0)
			s.mu.Lock()
			delete(s.sweeps, sw.ID)
			delete(s.owner, sw.ID)
			s.history[sw.ID] = evs
			s.historyIDs = append(s.historyIDs, sw.ID)
			if len(s.historyIDs) > historyLimit {
				delete(s.history, s.historyIDs[0])
				s.historyIDs = s.historyIDs[1:]
			}
			s.mu.Unlock()
			sw.Close()
		},
	})
}

// Handler returns the service's HTTP routes, wrapped in the per-route
// request counter/latency middleware. /healthz answers 200 to any probe
// that only reads the status code, and carries the JSON status document
// for anyone who reads the body; /metrics is the Prometheus scrape
// endpoint of the whole process (every instrumented layer, not just the
// server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /api/v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/cells", s.handleCells)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report", s.handleReportJSON)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report.json", s.handleReportJSON)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/report.csv", s.handleReportCSV)
	return obs.InstrumentHTTP(mux)
}

// handleHealthz serves the JSON status document: uptime, build info,
// scheduler occupancy. Plain liveness probes keep reading just the 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	active := len(s.sweeps)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ok",
		"uptime_seconds":   int64(time.Since(s.started).Seconds()),
		"build":            obs.BuildInfo(),
		"active_campaigns": active,
		"queued_jobs":      s.sched.Queued(),
		"workers":          s.sched.Workers(),
	})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// clientID identifies the submitting client for fair admission: the
// X-Client-ID header when present, else the connection's host address.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// campaignInfo is the status document of one campaign.
type campaignInfo struct {
	ID        string    `json:"id"`
	Client    string    `json:"client,omitempty"`
	Created   time.Time `json:"created"`
	Status    string    `json:"status"`
	Completed int       `json:"completed"`
	Total     int       `json:"total"`
}

func (s *Server) info(m store.Manifest) campaignInfo {
	info := campaignInfo{
		ID: m.ID, Client: m.Client, Created: m.Created, Status: m.Status,
	}
	s.mu.Lock()
	sw := s.sweeps[m.ID]
	s.mu.Unlock()
	if sw != nil {
		info.Completed, info.Total = sw.Completed(), sw.Total()
	} else if m.Status == store.StatusDone {
		// Finished campaigns completed their whole grid by definition;
		// rebuild the count from the spec rather than reopening the log.
		var spec cliffedge.CampaignSpec
		if json.Unmarshal(m.Spec, &spec) == nil {
			if camp, err := cliffedge.NewCampaignFromSpec(spec); err == nil {
				info.Total = len(camp.Jobs())
				info.Completed = info.Total
			}
		}
	}
	return info
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec cliffedge.CampaignSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	client := clientID(r)
	s.mu.Lock()
	active := 0
	for _, owner := range s.owner {
		if owner == client {
			active++
		}
	}
	if active >= s.cfg.MaxPerClient {
		s.mu.Unlock()
		mAdmissionRejects.Inc()
		httpError(w, http.StatusTooManyRequests,
			"client %q already has %d active campaigns (limit %d)", client, active, s.cfg.MaxPerClient)
		return
	}
	id := fmt.Sprintf("c%06d", s.nextID)
	s.nextID++
	// Reserve the owner slot in the same critical section as the admission
	// check, so N racing submits from one client cannot all pass it.
	s.owner[id] = client
	s.mu.Unlock()

	now := time.Now
	if s.cfg.now != nil {
		now = s.cfg.now
	}
	extra, err := s.sweepOptions(id)
	var sw *Sweep
	if err == nil {
		sw, err = Create(s.st, id, client, now().UTC(), spec, extra...)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.owner, id)
		s.mu.Unlock()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.log.Info("campaign submitted", "campaign", id, "client", client, "jobs", sw.Total())
	s.submit(sw, client)
	writeJSON(w, http.StatusCreated, map[string]any{
		"id": id, "status": store.StatusRunning, "total": sw.Total(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	manifests, err := s.st.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	infos := make([]campaignInfo, 0, len(manifests))
	for _, m := range manifests {
		infos = append(infos, s.info(m))
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": infos})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.st.Manifest(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.info(m))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.sched.Cancel(id) {
		s.log.Info("cancel requested", "campaign", id)
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancelling"})
		return
	}
	if _, err := s.st.Manifest(id); err != nil {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	httpError(w, http.StatusConflict, "campaign %q is not running", id)
}

func (s *Server) handleReportJSON(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if data, err := s.st.Report(id); err == nil {
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		return
	}
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		httpError(w, http.StatusNotFound, "no report for campaign %q", id)
		return
	}
	// Running sweep: a partial snapshot over everything committed so far.
	w.Header().Set("Content-Type", "application/json")
	sw.Report().WriteJSON(w)
}

func (s *Server) handleReportCSV(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := s.loadReport(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no report for campaign %q", id)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	rep.WriteCSV(w)
}

// loadReport materialises the campaign's report: the persisted one for
// finished campaigns (decoded — the Hist JSON codec makes that lossless),
// a live snapshot for running ones.
func (s *Server) loadReport(id string) (*campaign.Report, error) {
	if data, err := s.st.Report(id); err == nil {
		var rep campaign.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, err
		}
		return &rep, nil
	}
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		return nil, fmt.Errorf("no report")
	}
	return sw.Report(), nil
}

// handleCells serves the per-cell reports — the full report's Cells and
// Totals sections without the locality fit. For a running sweep this is a
// live partial over everything committed so far (the aggregator maintains
// the cell statistics online, so the snapshot is free); for a finished one
// it is the persisted report's cell table. Dashboards poll it to watch a
// sweep converge cell by cell, and a fleet coordinator folds the workers'
// partials into merged ones.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := s.loadReport(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "cells": rep.Cells, "totals": rep.Totals,
	})
}

// handleResults serves the campaign's raw result log — the CRC32-framed
// segment file, byte for byte. This is the fleet coordinator's merge
// feed: the framing makes the transfer self-validating (a torn tail, or a
// response truncated by a dying connection, decodes to a clean prefix on
// the client), and records stream without re-encoding. Reading while the
// sweep is appending is safe for the same reason: appends are single
// write calls, so the snapshot ends in at most one partial frame.
//
// ?offset=N streams from byte N, so a reader that remembers how many
// clean bytes it has decoded fetches only what was appended since. The
// log only grows, so an offset past its end means the caller followed a
// log that is gone (a fresh store behind the same campaign ID): 416
// tells it to start over rather than wait for bytes that will never come.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var offset int64
	if q := r.URL.Query(); q.Has("offset") {
		v := q.Get("offset")
		var err error
		if offset, err = strconv.ParseInt(v, 10, 64); err != nil || offset < 0 {
			httpError(w, http.StatusBadRequest, "bad offset %q", v)
			return
		}
	}
	path, err := s.st.File(id, "results.log")
	if err != nil {
		httpError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		httpError(w, http.StatusNotFound, "no results for campaign %q", id)
		return
	}
	defer f.Close()
	if offset > 0 {
		fi, err := f.Stat()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if offset > fi.Size() {
			httpError(w, http.StatusRequestedRangeNotSatisfiable,
				"offset %d is past the end of the log (%d bytes)", offset, fi.Size())
			return
		}
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var since int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		since, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("since"); v != "" {
		since, _ = strconv.ParseInt(v, 10, 64)
	}
	if since < 0 { // unparseable or hostile cursors read from the start
		since = 0
	}
	if since > 0 {
		mSSEReplays.Inc()
	}
	mSSESubscribers.Add(1)
	defer mSSESubscribers.Add(-1)

	s.mu.Lock()
	sw := s.sweeps[id]
	hist, inHistory := s.history[id]
	s.mu.Unlock()

	if sw == nil {
		if !inHistory {
			// Unknown, or finished before the last restart: stream the
			// terminal state from the manifest (or 404).
			m, err := s.st.Manifest(id)
			if err != nil {
				httpError(w, http.StatusNotFound, "no campaign %q", id)
				return
			}
			hist = []Event{{Seq: since + 1, Type: m.Status}}
			if m.Status == store.StatusDone {
				if data, err := s.st.Report(id); err == nil {
					hist[0].Report = data
				}
			}
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		for _, ev := range hist {
			if ev.Seq <= since {
				continue
			}
			if err := WriteSSE(w, ev); err != nil {
				return
			}
		}
		flusher.Flush()
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ctx := r.Context()
	for {
		events, wake := sw.EventsSince(since)
		for _, ev := range events {
			if err := WriteSSE(w, ev); err != nil {
				return
			}
			since = ev.Seq
			if ev.Terminal() {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-wake:
		case <-ctx.Done():
			return
		}
	}
}

// WriteSSE frames one event: the seq as the SSE id (reconnect cursor),
// the type as the SSE event name, the JSON document as data. The fleet
// coordinator's event streams share the framing, so one SSE client
// follows both.
func WriteSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}
