// Package fleet scales campaigns out over a pool of cliffedged workers.
// A Coordinator splits a campaign spec's seed range into shards, submits
// each shard to a worker as an ordinary single-box campaign over the
// existing HTTP API, follows the workers' SSE feeds, and merges their
// result logs — incrementally, as shards run — into one sweep in its own
// store. Because every run is a pure function of (cell, seed, attempt)
// and the report a pure function of the merged record multiset, the
// fleet's report.json is byte-identical to what one box running the
// whole spec would have written; a shard re-run after a worker loss
// contributes records the dedup already absorbs.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

// maxShardAttempts caps re-leases per shard. A shard that fails this many
// times on (potentially) distinct workers signals a problem no amount of
// reassignment fixes — a spec the workers reject, or a fleet-wide outage —
// so the fleet stops leasing and waits for an operator (the manifest stays
// running; a coordinator restart retries from the top).
const maxShardAttempts = 8

// Config tunes a Coordinator.
type Config struct {
	// Workers are the base URLs of the cliffedged workers (e.g.
	// "http://host:8080"). Required, at least one.
	Workers []string

	// Shards is the number of shards a fleet is split into; 0 means
	// min(seeds, 4×workers) — enough slack that a lost worker's share
	// re-spreads over the survivors in pieces, not as one big tail.
	Shards int

	// PerWorker caps concurrently leased shards per worker (default 2).
	PerWorker int

	// WorkerTimeout is how long contact failures with a worker may persist
	// before its shards are re-leased to the survivors (default 15s). An
	// idle-but-connected SSE stream never times out; only failed contact
	// counts.
	WorkerTimeout time.Duration

	// Client is the HTTP client for worker traffic. It must not carry a
	// global timeout (SSE streams are long-lived); per-request deadlines
	// are applied by the coordinator. Defaults to a fresh client.
	Client *http.Client

	// Logger receives progress records (nil: discard).
	Logger *slog.Logger

	// now stubs time for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.PerWorker <= 0 {
		c.PerWorker = 2
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 15 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// syncEvery batches the incremental merge: after this many new result
// events on a shard's feed the coordinator fetches what the shard's log
// gained since the last sync and commits it. flushEvery bounds how stale
// the merged log may run behind a slow shard's feed, and paces lost-worker
// probes.
const (
	syncEvery  = 16
	flushEvery = time.Second
)

// worker is one pool member's lease accounting. All fields are guarded by
// the coordinator's wmu — fleets lease from a shared pool.
type worker struct {
	url     string
	wc      *workerClient
	active  int  // currently leased shards
	lost    bool // failed past WorkerTimeout; revived by a probe
	probing bool // a health probe is in flight
}

// Coordinator owns a store of fleets and a pool of workers. It is the
// server-side core of `cliffedged -coordinator`: Submit starts a fleet,
// NewCoordinator resumes the running ones from disk.
type Coordinator struct {
	st      *store.Store
	cfg     Config
	started time.Time

	wmu     sync.Mutex
	workers []*worker

	// fleets holds the running fleets and the recently finished ones, whose
	// sweeps keep serving their event history.
	fleets serve.Resident[*Fleet]

	mu     sync.Mutex
	nextID int
	closed bool
	wg     sync.WaitGroup
}

// NewCoordinator opens (or creates) the fleet store at dataDir and
// resumes every fleet whose manifest is still running: the merged result
// log replays into the sweep, the shard table tells which remote
// campaigns may still be in flight, and drives re-attach to them —
// committed shards are not re-run, and in-flight remote campaigns are
// re-followed rather than resubmitted.
func NewCoordinator(dataDir string, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: a coordinator needs at least one worker URL")
	}
	st, err := store.Open(dataDir)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{st: st, cfg: cfg, started: time.Now()}
	for _, url := range cfg.Workers {
		co.workers = append(co.workers, &worker{
			url: strings.TrimRight(url, "/"),
			wc:  newWorkerClient(url, cfg.Client),
		})
	}
	manifests, err := st.List()
	if err != nil {
		return nil, err
	}
	for _, m := range manifests {
		var n int
		if _, err := fmt.Sscanf(m.ID, "f%d", &n); err != nil {
			continue // a worker-style campaign in a shared dir; not ours
		}
		if n > co.nextID {
			co.nextID = n
		}
		if m.Status != store.StatusRunning {
			continue
		}
		f, err := co.openFleet(m)
		if err != nil {
			co.cfg.Logger.Warn("cannot resume fleet", "fleet", m.ID, "err", err)
			continue
		}
		co.cfg.Logger.Info("resuming fleet", "fleet", f.ID,
			"completed", f.sw.Completed(), "total", f.sw.Total())
		co.startFleet(f)
	}
	return co, nil
}

// Submit creates a fleet for spec: persists its manifest, splits the seed
// range into the shard table, and starts the run loop. The returned Fleet
// is already running.
func (co *Coordinator) Submit(spec cliffedge.CampaignSpec, client string) (*Fleet, error) {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil, &serve.HTTPError{Status: http.StatusServiceUnavailable,
			Err: errors.New("fleet: coordinator is shutting down")}
	}
	co.nextID++
	id := fmt.Sprintf("f%06d", co.nextID)
	co.mu.Unlock()

	sw, err := serve.Create(co.st, id, client, co.cfg.now().UTC(), spec)
	if err != nil {
		return nil, err
	}
	f, err := co.newFleet(id, sw, spec, Split(spec, co.shardCount(spec)))
	if err != nil {
		sw.Close()
		return nil, err
	}
	if err := saveShards(co.st, id, f.shards); err != nil {
		sw.Close()
		return nil, err
	}
	co.cfg.Logger.Info("fleet submitted", "fleet", id, "client", client,
		"jobs", sw.Total(), "shards", len(f.shards), "workers", len(co.workers))
	co.startFleet(f)
	return f, nil
}

func (co *Coordinator) shardCount(spec cliffedge.CampaignSpec) int {
	n := co.cfg.Shards
	if n <= 0 {
		n = 4 * len(co.workers)
	}
	if n > spec.Seeds {
		n = spec.Seeds
	}
	if n < 1 {
		n = 1
	}
	return n
}

// openFleet rebuilds a fleet from its persisted state. The merged result
// log is ground truth: Open replays it into the sweep, and each shard's
// Done flag is recomputed from job coverage — a stale shard table (the
// crash won the race with saveShards) only costs re-following a finished
// remote campaign, which the dedup absorbs.
func (co *Coordinator) openFleet(m store.Manifest) (*Fleet, error) {
	sw, err := serve.Open(co.st, m.ID)
	if err != nil {
		return nil, err
	}
	var spec cliffedge.CampaignSpec
	if err := json.Unmarshal(m.Spec, &spec); err != nil {
		sw.Close()
		return nil, err
	}
	shards, ok, err := loadShards(co.st, m.ID)
	if err != nil || !ok {
		shards = Split(spec, co.shardCount(spec))
	}
	f, err := co.newFleet(m.ID, sw, spec, shards)
	if err != nil {
		sw.Close()
		return nil, err
	}
	for _, sh := range f.shards {
		_, short := f.uncovered(f.shardGrid(sh))
		sh.Done = !short
	}
	return f, nil
}

func (co *Coordinator) newFleet(id string, sw *serve.Sweep, spec cliffedge.CampaignSpec, shards []*Shard) (*Fleet, error) {
	camp, err := cliffedge.NewCampaignFromSpec(spec)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		ID:     id,
		co:     co,
		sw:     sw,
		spec:   spec,
		grid:   camp.Grid(),
		shards: shards,
	}
	f.ctx, f.stop = context.WithCancel(context.Background())
	return f, nil
}

// shardGrid is the grid of the shard's own spec: the fleet's grid
// narrowed to the shard's seeds.
func (f *Fleet) shardGrid(sh *Shard) campaign.Grid {
	g := f.grid
	g.SeedStart, g.Seeds = sh.SeedStart, sh.Seeds
	return g
}

func (co *Coordinator) startFleet(f *Fleet) {
	co.fleets.Add(f.ID, f)
	co.wg.Add(1)
	go f.run()
}

// Fleet returns a submitted or resumed fleet by ID (nil if unknown —
// fleets finished before the last restart, or more than
// serve.HistoryLimit finished fleets ago, live only in the store).
func (co *Coordinator) Fleet(id string) *Fleet { return co.fleets.Get(id) }

// Store exposes the coordinator's store for read paths (reports, lists).
func (co *Coordinator) Store() *store.Store { return co.st }

// Shutdown stops every fleet's run loop and waits for the drives to
// settle. Running fleets keep their running manifests — the next
// NewCoordinator resumes them; workers keep running their shards
// meanwhile, so a coordinator bounce loses no progress.
func (co *Coordinator) Shutdown() {
	co.mu.Lock()
	co.closed = true
	co.mu.Unlock()
	for _, f := range co.fleets.Clear() {
		f.stop()
	}
	co.wg.Wait()
}

// acquire leases a worker slot, preferring the shard's previous worker —
// if that worker is healthy its remote campaign is still valid and the
// drive re-attaches instead of resubmitting. Returns nil when no healthy
// worker has a free slot.
func (co *Coordinator) acquire(preferred string) *worker {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	var best *worker
	for _, w := range co.workers {
		if w.lost || w.active >= co.cfg.PerWorker {
			continue
		}
		if w.url == preferred {
			best = w
			break
		}
		if best == nil || w.active < best.active {
			best = w
		}
	}
	if best != nil {
		best.active++
	}
	return best
}

func (co *Coordinator) release(w *worker) {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	w.active--
}

func (co *Coordinator) markLost(w *worker) {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	if !w.lost {
		w.lost = true
		mWorkersLost.Add(1)
		co.cfg.Logger.Warn("worker lost", "worker", w.url)
	}
}

// probeLost health-checks lost workers in the background and revives the
// ones that answer. Paced by the fleets' flush tickers; the probing flag
// keeps concurrent fleets from stacking probes on the same worker.
func (co *Coordinator) probeLost() {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	for _, w := range co.workers {
		if !w.lost || w.probing {
			continue
		}
		w.probing = true
		mProbes.Inc()
		go func(w *worker) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			healthy := w.wc.Healthy(ctx)
			cancel()
			co.wmu.Lock()
			w.probing = false
			if healthy && w.lost {
				w.lost = false
				mWorkersLost.Add(-1)
				co.cfg.Logger.Info("worker back", "worker", w.url)
			}
			co.wmu.Unlock()
		}(w)
	}
}

// Fleet is one distributed sweep: the shard table plus the merged sweep
// in the coordinator's store. Its run loop leases shards to workers,
// folds their records into the sweep as they stream in, and re-leases
// shards whose workers are lost. Progress, the event stream and the
// report are the sweep's own — the same seq-numbered feed a single-box
// campaign serves, fed here by the incremental merge.
type Fleet struct {
	ID   string
	co   *Coordinator
	sw   *serve.Sweep
	spec cliffedge.CampaignSpec
	grid campaign.Grid

	ctx  context.Context
	stop context.CancelFunc

	mu        sync.Mutex
	shards    []*Shard
	cancelled bool
	failure   string
}

// Shards snapshots the shard table for status documents.
func (f *Fleet) Shards() []Shard {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Shard, len(f.shards))
	for i, sh := range f.shards {
		out[i] = *sh
	}
	return out
}

// Failure returns the fleet's terminal error, if leasing gave up.
func (f *Fleet) Failure() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failure
}

// Cancel stops the fleet: the run loop cancels the in-flight remote
// campaigns best-effort and marks the manifest cancelled.
func (f *Fleet) Cancel() {
	f.mu.Lock()
	f.cancelled = true
	f.mu.Unlock()
	f.stop()
}

// Outcome of one drive, reported to the run loop. msgSubmitted is the one
// non-terminal message: the drive stays alive, the loop persists the
// worker-allocated remote ID so a restarted coordinator re-attaches.
const (
	msgSubmitted = iota
	msgDone
	msgRetry   // shard must re-run (remote cancelled / vanished / short log)
	msgLost    // worker unreachable past WorkerTimeout
	msgAborted // fleet context cancelled
)

type shardMsg struct {
	index    int
	kind     int
	worker   *worker
	remoteID string
	err      error
}

// run is the fleet's single-owner loop: it alone mutates the shard table
// (drives report through msgs), so lease bookkeeping needs no finer
// locking than the table snapshot for status handlers.
func (f *Fleet) run() {
	defer f.co.wg.Done()
	defer f.sw.Close()
	mActiveFleets.Add(1)
	defer mActiveFleets.Add(-1)
	log := f.co.cfg.Logger.With("fleet", f.ID)
	terminal := false // the manifest reached done or cancelled
	defer func() {
		if terminal {
			f.co.fleets.Finish(f.ID)
		}
	}()

	msgs := make(chan shardMsg)
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()
	inflight := 0 // drives holding a worker slot
	running := make(map[int]bool)

	terminalMsg := func(msg shardMsg) {
		inflight--
		delete(running, msg.index)
		f.co.release(msg.worker)
	}

	for {
		// Lease every pending shard a healthy worker has a slot for.
		f.mu.Lock()
		if f.failure == "" {
			for i, sh := range f.shards {
				if sh.Done || running[i] {
					continue
				}
				w := f.co.acquire(sh.Worker)
				if w == nil {
					break
				}
				if sh.Worker != w.url {
					sh.RemoteID = "" // a different worker can't know the old campaign
				}
				sh.Worker = w.url
				lease := shardLease{
					index:    i,
					spec:     sh.Spec(f.spec),
					grid:     f.shardGrid(sh),
					remoteID: sh.RemoteID,
				}
				running[i] = true
				inflight++
				mLeases.Inc()
				log.Info("shard leased", "shard", i, "worker", w.url, "attempt", sh.Attempt)
				go f.driveShard(w, lease, msgs)
			}
		}
		pending := 0
		for _, sh := range f.shards {
			if !sh.Done {
				pending++
			}
		}
		failed := f.failure
		f.mu.Unlock()

		if pending == 0 && inflight == 0 {
			if err := f.sw.Finish(); err != nil {
				log.Error("finish failed", "err", err)
				return
			}
			log.Info("fleet done", "jobs", f.sw.Total())
			terminal = true
			return
		}
		if failed != "" && inflight == 0 {
			log.Error("fleet stalled; manifest stays running, restart to retry", "reason", failed)
			return
		}

		select {
		case msg := <-msgs:
			f.handle(msg, terminalMsg)
		case <-tick.C:
			f.co.probeLost()
		case <-f.ctx.Done():
			for inflight > 0 {
				if msg := <-msgs; msg.kind != msgSubmitted {
					terminalMsg(msg)
				}
			}
			f.mu.Lock()
			cancelled := f.cancelled
			shards := make([]Shard, len(f.shards))
			for i, sh := range f.shards {
				shards[i] = *sh
			}
			f.mu.Unlock()
			if cancelled {
				f.cancelRemotes(shards)
				if err := f.sw.Cancel(); err != nil {
					log.Error("cancel failed", "err", err)
				}
				log.Info("fleet cancelled")
				terminal = true
			}
			return
		}
	}
}

func (f *Fleet) handle(msg shardMsg, terminalMsg func(shardMsg)) {
	log := f.co.cfg.Logger.With("fleet", f.ID)
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := f.shards[msg.index]
	switch msg.kind {
	case msgSubmitted:
		sh.RemoteID = msg.remoteID
	case msgDone:
		terminalMsg(msg)
		sh.Done = true
		mShardsDone.Inc()
		log.Info("shard complete", "shard", msg.index, "worker", msg.worker.url)
	case msgLost:
		terminalMsg(msg)
		f.co.markLost(msg.worker)
		sh.Attempt++
		mReassignments.Inc()
		log.Warn("shard orphaned; re-leasing", "shard", msg.index,
			"worker", msg.worker.url, "err", msg.err)
	case msgRetry:
		terminalMsg(msg)
		sh.RemoteID = ""
		sh.Attempt++
		mReassignments.Inc()
		log.Warn("shard must re-run", "shard", msg.index, "err", msg.err)
	case msgAborted:
		terminalMsg(msg)
	}
	if sh.Attempt > maxShardAttempts && f.failure == "" {
		f.failure = fmt.Sprintf("shard %d failed %d times (last: %v)", msg.index, sh.Attempt, msg.err)
	}
	if err := saveShards(f.co.st, f.ID, f.shards); err != nil {
		log.Error("persisting shard table failed", "err", err)
	}
}

// cancelRemotes best-effort cancels the in-flight remote campaigns of a
// cancelled fleet so workers stop burning pool on abandoned shards.
func (f *Fleet) cancelRemotes(shards []Shard) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, sh := range shards {
		if sh.Done || sh.RemoteID == "" {
			continue
		}
		for _, w := range f.co.workers {
			if w.url == sh.Worker {
				w.wc.Cancel(ctx, sh.RemoteID)
			}
		}
	}
}

// shardLease is a drive's immutable view of its shard — the run loop owns
// the table, drives report back through msgs.
type shardLease struct {
	index    int
	spec     cliffedge.CampaignSpec
	grid     campaign.Grid
	remoteID string
}

// driveShard owns one shard lease end to end: submit (unless re-attaching
// to a known remote campaign), follow the worker's SSE feed with
// Last-Event-ID reconnects, sync what the shard's result log gains into
// the merged sweep in batches, and verify coverage when the remote
// campaign ends.
// Exactly one terminal msg is sent; msgSubmitted may precede it.
func (f *Fleet) driveShard(w *worker, lease shardLease, out chan<- shardMsg) {
	cfg := f.co.cfg
	ctx := f.ctx
	send := func(kind int, remoteID string, err error) bool {
		select {
		case out <- shardMsg{index: lease.index, kind: kind, worker: w, remoteID: remoteID, err: err}:
			return true
		case <-ctx.Done():
			return false
		}
	}
	terminal := func(kind int, err error) {
		if !send(kind, "", err) {
			// The loop is draining: it takes every terminal msg unconditionally.
			out <- shardMsg{index: lease.index, kind: msgAborted, worker: w}
		}
	}

	remoteID := lease.remoteID
	lastContact := cfg.now()
	contact := func() { lastContact = cfg.now() }
	expired := func() bool { return cfg.now().Sub(lastContact) > cfg.WorkerTimeout }

	if remoteID == "" {
		id, err := f.submitShard(ctx, w, lease)
		if err != nil {
			if ctx.Err() != nil {
				terminal(msgAborted, nil)
			} else if statusCode(err) != 0 {
				terminal(msgRetry, err) // worker answered but refused; not a loss
			} else {
				terminal(msgLost, err)
			}
			return
		}
		remoteID = id
		if !send(msgSubmitted, remoteID, nil) {
			terminal(msgAborted, nil)
			return
		}
		contact()
	}

	var since int64
	pending := 0
	flush := time.NewTicker(flushEvery)
	defer flush.Stop()
	feed := &shardFeed{f: f, wc: w.wc, remoteID: remoteID, log: cfg.Logger.With(
		"fleet", f.ID, "shard", lease.index, "worker", w.url, "remote", remoteID)}
	syncNow := func() {
		if err := feed.sync(ctx); err != nil {
			pending = 1 // try again at the next flush tick, not at every event
			return
		}
		pending = 0
		contact()
	}

	for {
		if ctx.Err() != nil {
			terminal(msgAborted, nil)
			return
		}
		events, closeStream, err := w.wc.Events(ctx, remoteID, since)
		if err != nil {
			if ctx.Err() != nil {
				terminal(msgAborted, nil)
				return
			}
			if statusCode(err) == http.StatusNotFound {
				terminal(msgRetry, fmt.Errorf("remote campaign %s vanished: %w", remoteID, err))
				return
			}
			if expired() {
				terminal(msgLost, err)
				return
			}
			if !sleepCtx(ctx, flushEvery) {
				terminal(msgAborted, nil)
				return
			}
			continue
		}
		contact()

	stream:
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					closeStream()
					break stream // reconnect from the since cursor
				}
				contact()
				if ev.Seq > since {
					since = ev.Seq
				}
				switch ev.Type {
				case "result":
					pending++
					if pending >= syncEvery {
						syncNow()
					}
				case "done":
					closeStream()
					err := feed.syncFinal(ctx)
					job, short := f.uncovered(lease.grid)
					if err == nil && short {
						// The cursor may have gone stale — a log swapped
						// under it without shrinking. One whole-log sync
						// is cheaper than re-running the shard.
						feed.offset = 0
						err = feed.syncFinal(ctx)
						job, short = f.uncovered(lease.grid)
					}
					switch {
					case err != nil && ctx.Err() != nil:
						terminal(msgAborted, nil)
					case errors.Is(err, errTransport):
						terminal(msgLost, fmt.Errorf("final sync: %w", err))
					case err != nil: // the worker answered; waiting will not fix what it said
						terminal(msgRetry, fmt.Errorf("final sync: %w", err))
					case short:
						terminal(msgRetry, fmt.Errorf("remote campaign %s finished but left %v uncovered", remoteID, job))
					default:
						terminal(msgDone, nil)
					}
					return
				case "cancelled":
					closeStream()
					terminal(msgRetry, fmt.Errorf("remote campaign %s was cancelled", remoteID))
					return
				}
			case <-flush.C:
				if pending > 0 {
					syncNow()
				}
			case <-ctx.Done():
				closeStream()
				terminal(msgAborted, nil)
				return
			}
		}

		if expired() {
			terminal(msgLost, errors.New("event stream kept dropping"))
			return
		}
		if !sleepCtx(ctx, flushEvery/2) {
			terminal(msgAborted, nil)
			return
		}
	}
}

// submitShard posts the shard's spec, retrying transport errors and
// admission pushback (429) until WorkerTimeout. The client ID ties the
// worker-side admission bookkeeping to the fleet.
func (f *Fleet) submitShard(ctx context.Context, w *worker, lease shardLease) (string, error) {
	cfg := f.co.cfg
	deadline := cfg.now().Add(cfg.WorkerTimeout)
	for {
		sctx, cancel := context.WithTimeout(ctx, cfg.WorkerTimeout)
		id, err := w.wc.Submit(sctx, lease.spec, "fleet-"+f.ID)
		cancel()
		if err == nil {
			return id, nil
		}
		if code := statusCode(err); ctx.Err() != nil ||
			(code != 0 && code != http.StatusTooManyRequests) ||
			cfg.now().After(deadline) {
			return "", err
		}
		if !sleepCtx(ctx, flushEvery/2) {
			return "", ctx.Err()
		}
	}
}

// uncovered returns the first job of g the merged sweep has not committed.
func (f *Fleet) uncovered(g campaign.Grid) (campaign.Job, bool) {
	for i := range g.Len() {
		if job := g.Job(i); !f.sw.IsCommitted(job) {
			return job, true
		}
	}
	return campaign.Job{}, false
}

// shardFeed is one drive's cursor into its remote campaign's result log:
// the first offset bytes are decoded and committed. It lives and dies with
// the drive — a re-lease, a resubmit or a restarted coordinator starts a
// new feed at 0, and the dedup absorbs that one whole-log fetch.
type shardFeed struct {
	f        *Fleet
	wc       *workerClient
	remoteID string
	offset   int64
	log      *slog.Logger
}

// sync folds what the shard's result log gained since the last sync into
// the merged sweep. A 416 means the log is shorter than the cursor — not
// the log it was read from — so the feed starts over from 0.
func (fd *shardFeed) sync(ctx context.Context) error {
	err := fd.fetch(ctx)
	if statusCode(err) == http.StatusRequestedRangeNotSatisfiable {
		fd.offset = 0
		err = fd.fetch(ctx)
	}
	if err != nil && ctx.Err() == nil {
		mSyncErrors.Inc()
		fd.log.Warn("shard sync failed", "offset", fd.offset, "err", err)
	}
	return err
}

// fetch reads the log from the cursor on and commits its records; the
// cursor advances only once all of them are in, over CRC-clean frames
// only, so a torn transfer or a failed commit is fetched again.
// CommitUnique dedups: records already merged (a lost worker's partial
// progress re-delivered by the re-run, a re-attach reading from 0) commit
// nothing and emit no event, so the merged feed stays exactly-once per
// job; a record outside the fleet's grid is its error.
func (fd *shardFeed) fetch(ctx context.Context) error {
	f := fd.f
	sctx, cancel := context.WithTimeout(ctx, f.co.cfg.WorkerTimeout)
	defer cancel()
	recs, n, err := fd.wc.Results(sctx, fd.remoteID, fd.offset)
	if err != nil {
		return err
	}
	mSyncBatches.Inc()
	for _, rec := range recs {
		added, err := f.sw.CommitUnique(rec.Job(), rec.Stats)
		if err != nil {
			return err
		}
		if added {
			mRecordsMerged.Inc()
		} else {
			mRecordsDeduped.Inc()
		}
	}
	fd.offset += n
	return nil
}

// syncFinal is the post-"done" sync. Transport trouble is retried until
// WorkerTimeout — the terminal event proves the records exist on the
// worker, so a short outage shouldn't force a whole shard re-run; any
// other failure is the worker's answer and is returned at once.
func (fd *shardFeed) syncFinal(ctx context.Context) error {
	cfg := fd.f.co.cfg
	deadline := cfg.now().Add(cfg.WorkerTimeout)
	for {
		err := fd.sync(ctx)
		if err == nil || !errors.Is(err, errTransport) ||
			ctx.Err() != nil || cfg.now().After(deadline) {
			return err
		}
		if !sleepCtx(ctx, flushEvery/2) {
			return ctx.Err()
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
