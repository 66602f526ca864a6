package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/obs"
	"cliffedge/internal/store"
)

// Backend is what the campaign-resource HTTP layer asks of whatever runs
// the sweeps behind it: a Server with its scheduler, or a fleet
// coordinator with its pool of remote workers. Everything else — routes,
// documents, SSE, error bodies — is Handler's and therefore identical on
// both.
type Backend interface {
	// Store holds the manifests, result logs and reports the read routes
	// serve.
	Store() *store.Store
	// Owns reports whether id names one of this backend's resources; the
	// list route hides the others (a worker's campaigns in a directory
	// shared with a coordinator).
	Owns(id string) bool
	// Submit creates a resource for spec and starts it. extra is merged
	// into the 201 document. A failure that is not a 500 is an *HTTPError.
	Submit(spec cliffedge.CampaignSpec, client string) (sw *Sweep, extra map[string]any, err error)
	// Cancel requests cancellation; false if id is not running here.
	Cancel(id string) bool
	// Sweep returns the sweep running, or recently finished, under id; nil
	// if the resource is unknown or lives only in the store.
	Sweep(id string) *Sweep
	// Status completes a status document with the backend's own fields;
	// detail is set on the single-resource view, not in lists.
	Status(info Info, detail bool) any
	// Health returns the backend's start time and its /healthz fields.
	Health() (started time.Time, extra map[string]any)
}

// HTTPError is an error that knows which HTTP status it is: 400 for a spec
// that does not validate, 429 for admission pushback, 503 for a backend
// that is shutting down.
type HTTPError struct {
	Status int
	Err    error
}

func (e *HTTPError) Error() string { return e.Err.Error() }
func (e *HTTPError) Unwrap() error { return e.Err }

// HistoryLimit bounds how many finished resources a backend keeps in
// memory with their event streams. Older ones are served from the store:
// status, report, and one synthesized terminal event.
const HistoryLimit = 64

// Resident is the set of resources a backend holds in memory: every
// running one plus the last HistoryLimit finished ones, so a subscriber
// that arrives after — or reconnects across — completion still replays
// every event exactly once.
type Resident[T any] struct {
	mu       sync.Mutex
	byID     map[string]T
	finished []string // resources past their terminal event, oldest first
}

// Add registers a running resource.
func (r *Resident[T]) Add(id string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID == nil {
		r.byID = make(map[string]T)
	}
	r.byID[id] = v
}

// Get returns the resource under id, or the zero T.
func (r *Resident[T]) Get(id string) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Finish records that id reached a terminal status and forgets the oldest
// finished resource beyond HistoryLimit.
func (r *Resident[T]) Finish(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, id)
	if len(r.finished) > HistoryLimit {
		delete(r.byID, r.finished[0])
		r.finished = r.finished[1:]
	}
}

// Clear forgets every resource and returns the ones still running.
func (r *Resident[T]) Clear() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.finished {
		delete(r.byID, id)
	}
	running := slices.Collect(maps.Values(r.byID))
	r.byID, r.finished = nil, nil
	return running
}

// api is the handler set of one backend under one resource noun.
type api struct {
	noun string // "campaign" or "fleet"
	b    Backend
}

// Handler returns the campaign-resource routes over b, mounted under
// /api/v1/<noun>s and wrapped in the per-route request counter/latency
// middleware. /healthz answers 200 to any probe that only reads the
// status code, and carries the JSON status document for anyone who reads
// the body; /metrics is the Prometheus scrape endpoint of the whole
// process (every instrumented layer, not just this one).
func Handler(noun string, b Backend) http.Handler {
	a := &api{noun: noun, b: b}
	root := "/api/v1/" + noun + "s"
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.healthz)
	mux.Handle("GET /metrics", obs.Handler())
	mux.HandleFunc("POST "+root, a.submit)
	mux.HandleFunc("GET "+root, a.list)
	mux.HandleFunc("GET "+root+"/{id}", a.status)
	mux.HandleFunc("DELETE "+root+"/{id}", a.cancel)
	mux.HandleFunc("GET "+root+"/{id}/events", a.events)
	mux.HandleFunc("GET "+root+"/{id}/cells", a.cells)
	mux.HandleFunc("GET "+root+"/{id}/results", a.results)
	mux.HandleFunc("GET "+root+"/{id}/report", a.reportJSON)
	mux.HandleFunc("GET "+root+"/{id}/report.json", a.reportJSON)
	mux.HandleFunc("GET "+root+"/{id}/report.csv", a.reportCSV)
	return obs.InstrumentHTTP(mux)
}

// healthz serves the JSON status document: uptime, build info and the
// backend's occupancy. Plain liveness probes keep reading just the 200.
func (a *api) healthz(w http.ResponseWriter, r *http.Request) {
	started, extra := a.b.Health()
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(started).Seconds()),
		"build":          obs.BuildInfo(),
	}
	maps.Copy(doc, extra)
	writeJSON(w, http.StatusOK, doc)
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

// Info is the status document every resource has; a backend's Status may
// embed it in a larger one.
type Info struct {
	ID        string    `json:"id"`
	Client    string    `json:"client,omitempty"`
	Created   time.Time `json:"created"`
	Status    string    `json:"status"`
	Completed int       `json:"completed"`
	Total     int       `json:"total"`
}

func (a *api) info(m store.Manifest, detail bool) any {
	info := Info{ID: m.ID, Client: m.Client, Created: m.Created, Status: m.Status}
	if sw := a.b.Sweep(m.ID); sw != nil {
		info.Completed, info.Total = sw.Completed(), sw.Total()
	} else if m.Status == store.StatusDone {
		// Finished resources completed their whole grid by definition;
		// rebuild the count from the spec rather than reopening the log.
		var spec cliffedge.CampaignSpec
		if json.Unmarshal(m.Spec, &spec) == nil {
			if camp, err := cliffedge.NewCampaignFromSpec(spec); err == nil {
				info.Total = camp.Grid().Len()
				info.Completed = info.Total
			}
		}
	}
	return a.b.Status(info, detail)
}

func (a *api) submit(w http.ResponseWriter, r *http.Request) {
	var spec cliffedge.CampaignSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	sw, extra, err := a.b.Submit(spec, clientID(r))
	if err != nil {
		code := http.StatusInternalServerError
		var he *HTTPError
		if errors.As(err, &he) {
			code = he.Status
		}
		httpError(w, code, "%v", err)
		return
	}
	doc := map[string]any{"id": sw.ID, "status": store.StatusRunning, "total": sw.Total()}
	maps.Copy(doc, extra)
	writeJSON(w, http.StatusCreated, doc)
}

func (a *api) list(w http.ResponseWriter, r *http.Request) {
	manifests, err := a.b.Store().List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	infos := make([]any, 0, len(manifests))
	for _, m := range manifests {
		if a.b.Owns(m.ID) {
			infos = append(infos, a.info(m, false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{a.noun + "s": infos})
}

func (a *api) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := a.b.Store().Manifest(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", a.noun, id)
		return
	}
	writeJSON(w, http.StatusOK, a.info(m, true))
}

func (a *api) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if a.b.Cancel(id) {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancelling"})
		return
	}
	if _, err := a.b.Store().Manifest(id); err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", a.noun, id)
		return
	}
	httpError(w, http.StatusConflict, "%s %q is not running", a.noun, id)
}

// liveReport snapshots a running sweep's partial report over everything
// committed so far; nil for anything else, whose report — if it has one —
// is in the store.
func (a *api) liveReport(id string) *campaign.Report {
	if sw := a.b.Sweep(id); sw != nil {
		return sw.Report()
	}
	return nil
}

// loadReport materialises the resource's report: a live snapshot for a
// running sweep, the persisted one for a finished resource (decoded — the
// Hist JSON codec makes that lossless).
func (a *api) loadReport(id string) (*campaign.Report, error) {
	if rep := a.liveReport(id); rep != nil {
		return rep, nil
	}
	data, err := a.b.Store().Report(id)
	if err != nil {
		return nil, err
	}
	var rep campaign.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func (a *api) reportJSON(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rep := a.liveReport(id); rep != nil {
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w)
		return
	}
	data, err := a.b.Store().Report(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no report for %s %q", a.noun, id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (a *api) reportCSV(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := a.loadReport(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no report for %s %q", a.noun, id)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	rep.WriteCSV(w)
}

// cells serves the per-cell reports — the full report's Cells and Totals
// sections without the locality fit. For a running sweep this is a live
// partial over everything committed so far (the aggregator maintains the
// cell statistics online, so the snapshot is free); for a finished one it
// is the persisted report's cell table. Dashboards poll it to watch a
// sweep converge cell by cell.
func (a *api) cells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := a.loadReport(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", a.noun, id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "cells": rep.Cells, "totals": rep.Totals,
	})
}

// results serves the resource's raw result log — the CRC32-framed segment
// file, byte for byte. This is the fleet coordinator's merge feed: the
// framing makes the transfer self-validating (a torn tail, or a response
// truncated by a dying connection, decodes to a clean prefix on the
// client), and records stream without re-encoding. Reading while the
// sweep is appending is safe for the same reason: appends are single
// write calls, so the snapshot ends in at most one partial frame.
//
// ?offset=N streams from byte N, so a reader that remembers how many
// clean bytes it has decoded fetches only what was appended since. The
// log only grows, so an offset past its end means the caller followed a
// log that is gone (a fresh store behind the same ID): 416 tells it to
// start over rather than wait for bytes that will never come.
func (a *api) results(w http.ResponseWriter, r *http.Request) {
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
	path, err := a.b.Store().File(id, "results.log")
	if err != nil {
		httpError(w, http.StatusNotFound, "no %s %q", a.noun, id)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		httpError(w, http.StatusNotFound, "no results for %s %q", a.noun, id)
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

// events streams the resource's progress feed from the client's cursor
// (Last-Event-ID, else ?since=; unparseable or negative cursors read from
// the start). A sweep in memory — running or recently finished — replays
// its history and then follows it to the terminal event; a resource that
// finished before the last restart, or more than HistoryLimit resources
// ago, streams one terminal event synthesized from the manifest.
func (a *api) events(w http.ResponseWriter, r *http.Request) {
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
	if since < 0 {
		since = 0
	}
	if since > 0 {
		mSSEReplays.Inc()
	}
	mSSESubscribers.Add(1)
	defer mSSESubscribers.Add(-1)

	sw := a.b.Sweep(id)
	if sw == nil {
		m, err := a.b.Store().Manifest(id)
		if err != nil {
			httpError(w, http.StatusNotFound, "no %s %q", a.noun, id)
			return
		}
		ev := Event{Seq: since + 1, Type: m.Status}
		if m.Status == store.StatusDone {
			if data, err := a.b.Store().Report(id); err == nil {
				ev.Report = data
			}
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		WriteSSE(w, ev)
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
		if wake == nil { // closed: the history is final and was all sent
			return
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return
		}
	}
}

// WriteSSE frames one event: the seq as the SSE id (reconnect cursor),
// the type as the SSE event name, the JSON document as data.
func WriteSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// maxSSELine bounds one line of an SSE stream: a terminal event embeds
// the whole report.
const maxSSELine = 16 << 20

// ReadSSE is the inverse of WriteSSE: it decodes the data lines of an SSE
// stream and hands each event to fn, until fn returns false or the stream
// ends. Only the data field matters — WriteSSE embeds the seq and type in
// the JSON document. A line that does not decode, or is longer than
// maxSSELine, ends the stream with an error; a caller that reconnects
// from its last seq may treat that like any other end of stream.
func ReadSSE(r io.Reader, fn func(Event) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxSSELine)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("serve: bad SSE data line: %w", err)
		}
		if !fn(ev) {
			return nil
		}
	}
	return sc.Err()
}
