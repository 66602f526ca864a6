// Package serve turns campaigns into a service: a Sweep binds one
// campaign to its persisted state (manifest, append-only result log,
// final report) and a seq-numbered event history; a Server runs any
// number of concurrent sweeps on one campaign.Scheduler and exposes them
// over HTTP with SSE progress streaming. Because every run is a pure
// function of its job, the persisted result multiset fully determines
// the report — a sweep resumed after a crash merges on-disk
// and re-run results into a report byte-identical to an uninterrupted
// sweep's.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/store"
)

// Event is one entry of a sweep's progress stream. Seq numbers are dense
// and start at 1; they double as SSE event IDs, so a subscriber that
// reconnects with Last-Event-ID resumes exactly where it left off. Only
// persisted runs enter the stream — aborted ones don't, so the history
// mirrors the result log exactly: after a server restart it is rebuilt
// from the log in log order, which is the order the events were first
// emitted, and seqs are stable across restarts.
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "result", "done" or "cancelled"

	// Result events: the completed job and its headline outcome.
	Job        *campaign.Job `json:"job,omitempty"`
	Err        string        `json:"err,omitempty"`
	Decisions  int           `json:"decisions,omitempty"`
	Violations int           `json:"violations,omitempty"`

	// Aggregate counters, cumulative as of this event.
	Completed       int `json:"completed"`
	Total           int `json:"total"`
	TotalErrors     int `json:"total_errors"`
	TotalViolations int `json:"total_violations"`

	// Terminal events: the final report ("done" only).
	Report json.RawMessage `json:"report,omitempty"`
}

// Terminal reports whether the event ends the stream.
func (e Event) Terminal() bool { return e.Type == "done" || e.Type == "cancelled" }

// Sweep is one campaign bound to its persistent state: every completed
// run goes through Commit, which aggregates it, appends it to the durable
// result log and publishes a progress event — one write path shared by
// the dedicated CLI runner (via Run) and the server's scheduler.
//
// The event history is kept as one row per committed job, keyed by the
// job's grid index, and rendered into Events on read; a finished sweep a
// backend keeps for its history costs a row per job.
type Sweep struct {
	ID    string
	st    *store.Store
	camp  *cliffedge.Campaign
	grid  campaign.Grid
	total int // size of the campaign's full grid

	// agg and done serve a sweep that can still commit; Close drops them,
	// so a finished sweep kept for its event history costs the history
	// only. done is indexed by grid index, true once committed.
	mu         sync.Mutex
	agg        *campaign.Aggregator
	results    *store.Results
	done       []bool
	rows       []row
	errs       map[int]string // run errors by row, only the errored jobs
	final      *Event         // the terminal event, once published
	errors     int
	violations int64
	notify     chan struct{}
	closed     bool
	// cancelled is set before the "cancelled" event is published: a
	// cancelled campaign has no report, so a client that has seen the
	// event must not be served the live one in the moment before Close.
	cancelled bool
}

// row is one result event: row k renders as the event with Seq k+1 and
// Completed k+1. errors and totalViolations are the running totals as of
// the event, so any suffix of the history renders without a rescan.
type row struct {
	index           int32 // the job's grid index
	decisions       int32
	violations      int32
	errors          int32
	totalViolations int64
}

// Create validates spec, persists the campaign's manifest and empty
// result log, and returns the ready-to-run sweep. Extra campaign options
// (typically cliffedge.WithClusterOptions, or cliffedge.WithTraceDir
// pointed at the store's TraceDir) are runtime configuration applied on
// top of the spec — both frontends must pass the same ones for resumed
// runs to be comparable.
func Create(st *store.Store, id, client string, created time.Time, spec cliffedge.CampaignSpec, extra ...cliffedge.CampaignOption) (*Sweep, error) {
	camp, err := newCampaign(spec, extra...)
	if err != nil {
		return nil, &HTTPError{Status: http.StatusBadRequest, Err: err}
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := st.Create(store.Manifest{
		ID: id, Created: created, Client: client,
		Status: store.StatusRunning, Spec: raw,
	}); err != nil {
		return nil, err
	}
	results, _, err := st.OpenResults(id)
	if err != nil {
		return nil, err
	}
	return newSweep(st, id, camp, results, nil)
}

// Open rebinds a persisted campaign: the manifest's spec rebuilds the
// grid, the result log replays into a fresh aggregator and the event
// history, and the sweep resumes with exactly the jobs that never
// completed. Records for jobs outside the grid (or duplicates) are
// rejected — they would mean the spec or the log was tampered with.
func Open(st *store.Store, id string, extra ...cliffedge.CampaignOption) (*Sweep, error) {
	m, err := st.Manifest(id)
	if err != nil {
		return nil, err
	}
	var spec cliffedge.CampaignSpec
	if err := json.Unmarshal(m.Spec, &spec); err != nil {
		return nil, fmt.Errorf("serve: campaign %s: bad spec: %w", id, err)
	}
	camp, err := newCampaign(spec, extra...)
	if err != nil {
		return nil, fmt.Errorf("serve: campaign %s: %w", id, err)
	}
	results, recs, err := st.OpenResults(id)
	if err != nil {
		return nil, err
	}
	s, err := newSweep(st, id, camp, results, recs)
	if err != nil {
		results.Close()
		return nil, err
	}
	return s, nil
}

// newCampaign builds spec's campaign, whose grid index must fit a row.
func newCampaign(spec cliffedge.CampaignSpec, extra ...cliffedge.CampaignOption) (*cliffedge.Campaign, error) {
	camp, err := cliffedge.NewCampaignFromSpec(spec, extra...)
	if err != nil {
		return nil, err
	}
	const most = math.MaxInt32
	g := camp.Grid()
	if c := len(g.Cells); c > most || g.Seeds > most/c || g.Attempts > most/(c*g.Seeds) {
		return nil, fmt.Errorf("serve: %d cells × %d seeds × %d attempts is more than %d jobs",
			len(g.Cells), g.Seeds, g.Attempts, most)
	}
	return camp, nil
}

// newSweep assembles the in-memory state, folding replayed records into
// the aggregator and the event history. A record outside the grid or
// repeating a job is an error.
func newSweep(st *store.Store, id string, camp *cliffedge.Campaign, results *store.Results, recs []store.Record) (*Sweep, error) {
	grid := camp.Grid()
	total := grid.Len()
	s := &Sweep{
		ID: id, st: st, camp: camp, grid: grid, total: total,
		agg:     campaign.NewAggregator(),
		results: results,
		done:    make([]bool, total),
		rows:    make([]row, 0, total),
		notify:  make(chan struct{}),
	}
	for _, rec := range recs {
		job := rec.Job()
		i, inGrid := grid.Index(job)
		if !inGrid || s.done[i] || !fitsRow(rec.Stats) {
			return nil, fmt.Errorf("serve: campaign %s: result log does not match spec grid at %s seed %d attempt %d",
				id, job.Cell, job.Seed, job.Attempt)
		}
		s.agg.Add(job, rec.Stats)
		s.appendRowLocked(i, rec.Stats)
	}
	return s, nil
}

// Total returns the size of the campaign's full grid.
func (s *Sweep) Total() int { return s.total }

// Completed returns how many jobs have committed so far.
func (s *Sweep) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

// Remaining lists the grid jobs that have not committed, in grid order —
// the resume cursor.
func (s *Sweep) Remaining() []campaign.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []campaign.Job
	for i, committed := range s.done {
		if !committed {
			out = append(out, s.grid.Job(i))
		}
	}
	return out
}

// RunJob executes one job of the sweep's grid.
func (s *Sweep) RunJob(ctx context.Context, job campaign.Job) campaign.RunStats {
	return s.camp.RunJob(ctx, job)
}

// Commit folds one completed run into the aggregate, durably appends it
// to the result log and publishes its progress event; a job outside the
// grid is an error. Callers pass persist=false for runs aborted by
// cancellation or shutdown, and those are dropped entirely: not
// aggregated (their context-error stats would poison partial reports
// and, replayed on resume, the final one), not logged (resume must re-run
// them) and not published (the seq space then contains exactly the
// committed runs, keeping seqs stable across restarts).
func (s *Sweep) Commit(job campaign.Job, stats campaign.RunStats, persist bool) error {
	if !persist {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, err := s.indexLocked(job)
	if err != nil {
		return err
	}
	return s.commitLocked(i, job, stats)
}

// CommitUnique folds the run in unless its job has already committed, and
// reports whether it was added; a job outside the grid is an error. This
// is the fleet-merge write path, and the only check a worker's record
// gets: a re-assigned shard re-contributes records its lost worker
// already delivered, and the check-and-append must be one critical
// section so two shard followers racing on the same job cannot both log
// it.
func (s *Sweep) CommitUnique(job campaign.Job, stats campaign.RunStats) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, err := s.indexLocked(job)
	if err != nil || s.done[i] {
		return false, err
	}
	if err := s.commitLocked(i, job, stats); err != nil {
		return false, err
	}
	return true, nil
}

// IsCommitted reports whether the job's result is already in the log —
// the fleet coordinator's shard-coverage check.
func (s *Sweep) IsCommitted(job campaign.Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, inGrid := s.grid.Index(job)
	return inGrid && s.done != nil && s.done[i]
}

// indexLocked returns job's grid index, or the error a commit of it
// answers: the job is outside the grid, or the sweep has published its
// terminal event (whose seq the next row would take) or is closed.
func (s *Sweep) indexLocked(job campaign.Job) (int, error) {
	if s.final != nil || s.closed {
		return 0, fmt.Errorf("serve: campaign %s no longer commits", s.ID)
	}
	i, inGrid := s.grid.Index(job)
	if !inGrid {
		return 0, fmt.Errorf("serve: campaign %s: %s seed %d attempt %d is outside the spec grid",
			s.ID, job.Cell, job.Seed, job.Attempt)
	}
	return i, nil
}

func (s *Sweep) commitLocked(i int, job campaign.Job, stats campaign.RunStats) error {
	if !fitsRow(stats) {
		return fmt.Errorf("serve: campaign %s: %s seed %d attempt %d: counts out of range (%d decisions, %d violations)",
			s.ID, job.Cell, job.Seed, job.Attempt, stats.Decisions, stats.Violations)
	}
	if err := s.results.Append(store.Record{
		Cell: job.Cell, Seed: job.Seed, Attempt: job.Attempt, Stats: stats,
	}); err != nil {
		return err
	}
	s.agg.Add(job, stats)
	s.appendRowLocked(i, stats)
	s.wakeLocked()
	publishCommit(stats)
	return nil
}

// fitsRow reports whether the run's headline counts fit a row's columns.
func fitsRow(stats campaign.RunStats) bool {
	return stats.Decisions == int(int32(stats.Decisions)) && stats.Violations == int(int32(stats.Violations))
}

// appendRowLocked marks grid index i committed and records its event.
func (s *Sweep) appendRowLocked(i int, stats campaign.RunStats) {
	if stats.Err != "" {
		s.errors++
		if s.errs == nil {
			s.errs = make(map[int]string)
		}
		s.errs[len(s.rows)] = stats.Err
	}
	s.violations += int64(stats.Violations)
	s.done[i] = true
	s.rows = append(s.rows, row{
		index: int32(i), decisions: int32(stats.Decisions), violations: int32(stats.Violations),
		errors: int32(s.errors), totalViolations: s.violations,
	})
}

// Run executes every remaining job on a dedicated pool (workers ≤ 0:
// GOMAXPROCS) — the CLI frontend's loop, one task on a scheduler of its
// own. On clean completion it finishes the sweep (report rendered and
// persisted, manifest marked done). A cancelled sweep aborts its
// in-flight runs and returns the partial report over the committed runs
// with the manifest left running, so a later -resume carries on; the
// first commit error is returned the same way.
func (s *Sweep) Run(ctx context.Context, workers int) (*campaign.Report, error) {
	var once sync.Once
	var commitErr error
	err := campaign.RunAll(ctx, workers, s.Remaining(), s.RunJob,
		func(j campaign.Job, st campaign.RunStats, persist bool) {
			if err := s.Commit(j, st, persist); err != nil {
				once.Do(func() { commitErr = err })
			}
		})
	if err == nil {
		err = commitErr
	}
	if err == nil {
		err = s.Finish()
	}
	return s.Report(), err
}

// Report snapshots the aggregate over everything committed so far; nil
// once the sweep is closed (a finished sweep's report is in the store) or
// cancelled (a cancelled one has none).
func (s *Sweep) Report() *campaign.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.cancelled {
		return nil
	}
	return s.agg.Report()
}

// Finish renders the final report, persists it, marks the manifest done
// and publishes the terminal "done" event carrying the report.
func (s *Sweep) Finish() error {
	var buf bytes.Buffer
	if err := s.Report().WriteJSON(&buf); err != nil {
		return err
	}
	if err := s.st.WriteReport(s.ID, buf.Bytes()); err != nil {
		return err
	}
	if err := s.st.SetStatus(s.ID, store.StatusDone); err != nil {
		return err
	}
	s.terminal("done", buf.Bytes())
	return nil
}

// Cancel marks the manifest cancelled and publishes the terminal
// "cancelled" event. A cancelled campaign is not resumed at restart.
func (s *Sweep) Cancel() error {
	if err := s.st.SetStatus(s.ID, store.StatusCancelled); err != nil {
		return err
	}
	s.mu.Lock()
	s.cancelled = true
	s.mu.Unlock()
	s.terminal("cancelled", nil)
	return nil
}

func (s *Sweep) terminal(typ string, report []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.rows)
	s.final = &Event{
		Seq: int64(n + 1), Type: typ,
		Completed: n, Total: s.total,
		TotalErrors: s.errors, TotalViolations: int(s.violations),
		Report: report,
	}
	s.wakeLocked()
}

func (s *Sweep) wakeLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// EventsSince returns every event with Seq > since plus a channel that
// closes when further events arrive — the SSE handler's wait loop; the
// channel is nil once the sweep is closed and its history final. Each
// subscriber walks the shared history by sequence number, so every event
// reaches every subscriber exactly once regardless of reconnects.
// Negative cursors (a client's bogus Last-Event-ID) read from the start.
// The result events are rendered from their rows, in time proportional
// to the number returned.
func (s *Sweep) EventsSince(since int64) ([]Event, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	since = max(since, 0)
	var out []Event
	if n := int64(len(s.rows)); since < n {
		out = make([]Event, 0, n-since+1)
		jobs := make([]campaign.Job, n-since)
		for k, r := range s.rows[since:] {
			seq := int(since) + k + 1
			jobs[k] = s.grid.Job(int(r.index))
			out = append(out, Event{
				Seq: int64(seq), Type: "result",
				Job: &jobs[k], Err: s.errs[seq-1], Decisions: int(r.decisions), Violations: int(r.violations),
				Completed: seq, Total: s.total,
				TotalErrors: int(r.errors), TotalViolations: int(r.totalViolations),
			})
		}
	}
	if s.final != nil && since < s.final.Seq {
		out = append(out, *s.final)
	}
	if s.closed {
		return out, nil
	}
	return out, s.notify
}

// Close releases the result log and what only a sweep that can still
// commit needs — the aggregate and the committed set. The event history
// and the progress counts stay readable, which is all a backend keeps a
// finished sweep for. The sweep must not commit afterwards.
func (s *Sweep) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.agg, s.done = nil, nil
	if len(s.rows) < cap(s.rows) { // cancelled, or shut down mid-sweep
		s.rows = append(make([]row, 0, len(s.rows)), s.rows...)
	}
	s.wakeLocked() // subscribers re-read and see the history is final
	return s.results.Close()
}
