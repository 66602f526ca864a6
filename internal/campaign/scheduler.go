package campaign

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Task is one sweep's worth of work submitted to the scheduler. Run and
// Commit are injected so the scheduler stays a pure dispatch policy —
// the server wires them to Sweep.RunJob/Sweep.Commit, a dedicated run to
// its aggregator, tests to recorders.
type Task struct {
	ID   string
	Jobs []Job
	// Run executes one job under the task's context.
	Run func(ctx context.Context, job Job) RunStats
	// Commit records one finished run. persist is false when the run was
	// aborted by cancellation or shutdown: its context-error stats must be
	// dropped, not aggregated or logged, so a resume re-runs the job.
	Commit func(job Job, stats RunStats, persist bool)
	// Done fires exactly once, after every job of a task has committed
	// with persist=true (or the task was cancelled) and its last in-flight
	// run has drained. It is NOT called for tasks interrupted by Stop —
	// their aborted runs never commit, the task stays unfinished, and its
	// manifest stays "running", which is precisely what makes a restart
	// resume it.
	Done func(cancelled bool)

	cursor    int // jobs dispatched
	committed int // jobs committed with persist=true
	inflight  int
	cancelled bool
	finished  bool
	ctx       context.Context
	cancel    context.CancelFunc
}

// Scheduler is the one worker pool every campaign run goes through. It
// fair-shares its workers across concurrently running tasks: workers pick
// jobs strictly round-robin over the active tasks, one job per turn, so
// an 8-cell quick sweep submitted behind a 10000-job marathon starts
// making progress immediately and both advance at the same per-task rate.
// Its worker loop is the one place a job is counted (metrics.go).
type Scheduler struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []*Task // round-robin ring, submission order
	next   int     // ring index the next pick starts from
	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	closed bool
}

// NewScheduler builds a scheduler with the given pool size (≤ 0:
// GOMAXPROCS) and starts its workers.
func NewScheduler(workers int) *Scheduler { return newScheduler(context.Background(), workers) }

// newScheduler is NewScheduler under a parent context: once ctx is done,
// no further job is dispatched and in-flight runs see their context
// cancelled, as after Stop — which must still be called to join the
// workers.
func newScheduler(ctx context.Context, workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := &Scheduler{workers: workers}
	sc.cond = sync.NewCond(&sc.mu)
	sc.ctx, sc.stop = context.WithCancel(ctx)
	for i := 0; i < workers; i++ {
		sc.wg.Add(1)
		go sc.worker()
	}
	return sc
}

// RunAll executes jobs on a dedicated pool of workers (≤ 0: GOMAXPROCS) —
// a scheduler of its own with jobs as its one task — and returns nil once
// every job has committed with persist=true. Cancelling ctx stops the
// pool instead: undispatched jobs never run, in-flight runs abort and
// commit with persist=false, and RunAll returns ctx's error after they
// have drained.
func RunAll(ctx context.Context, workers int, jobs []Job, run func(context.Context, Job) RunStats, commit func(Job, RunStats, bool)) error {
	sc := newScheduler(ctx, workers)
	done := make(chan struct{})
	sc.Submit(&Task{Jobs: jobs, Run: run, Commit: commit, Done: func(bool) { close(done) }})
	select {
	case <-done:
	case <-ctx.Done():
	}
	sc.Stop()
	select {
	case <-done:
		return nil
	default:
		return ctx.Err()
	}
}

// Workers returns the pool size.
func (sc *Scheduler) Workers() int { return sc.workers }

// Queued counts jobs accepted but not yet dispatched across the active
// tasks — the healthz backlog figure.
func (sc *Scheduler) Queued() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for _, t := range sc.tasks {
		if !t.finished && !t.cancelled {
			n += len(t.Jobs) - t.cursor
		}
	}
	return n
}

// Submit enters a task into the round-robin ring. The task's context
// descends from the scheduler's, so Stop aborts its in-flight runs. A
// task with no jobs — a resumed sweep whose grid had fully committed
// before the crash — finishes immediately.
func (sc *Scheduler) Submit(t *Task) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	t.ctx, t.cancel = context.WithCancel(sc.ctx)
	sc.tasks = append(sc.tasks, t)
	mQueueDepth.Add(int64(len(t.Jobs)))
	done := sc.maybeFinishLocked(t)
	sc.cond.Broadcast()
	sc.mu.Unlock()
	if done != nil {
		done()
	}
}

// Cancel aborts the named task: no further jobs are dispatched, in-flight
// runs see their context cancelled, and Done(true) fires once the last of
// them drains. Returns false if the task is not active.
func (sc *Scheduler) Cancel(id string) bool {
	sc.mu.Lock()
	var t *Task
	for _, c := range sc.tasks {
		if c.ID == id && !c.finished && !c.cancelled {
			t = c
			break
		}
	}
	if t == nil {
		sc.mu.Unlock()
		return false
	}
	t.cancelled = true
	t.cancel()
	done := sc.maybeFinishLocked(t)
	sc.mu.Unlock()
	if done != nil {
		done()
	}
	return true
}

// Active returns the number of tasks not yet finished.
func (sc *Scheduler) Active() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for _, t := range sc.tasks {
		if !t.finished {
			n++
		}
	}
	return n
}

// Stop cancels every in-flight run and waits for the workers to drain.
// Pending tasks are abandoned without Done — the restart-resume path.
func (sc *Scheduler) Stop() {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	sc.stop()
	sc.mu.Lock()
	sc.cond.Broadcast()
	sc.mu.Unlock()
	sc.wg.Wait()
}

// pickLocked claims the next job in strict round-robin order: scan the
// ring starting at next, take one job from the first task that has any,
// and advance next past it so the following pick starts at the next task.
// next is not wrapped here: when the pick was the ring's last task, a task
// submitted before the following pick is the next one, not the first.
func (sc *Scheduler) pickLocked() (*Task, Job, bool) {
	n := len(sc.tasks)
	for i := 0; i < n; i++ {
		idx := (sc.next + i) % n
		t := sc.tasks[idx]
		if t.finished || t.cancelled || t.cursor >= len(t.Jobs) {
			continue
		}
		job := t.Jobs[t.cursor]
		t.cursor++
		t.inflight++
		mQueueDepth.Add(-1)
		sc.next = idx + 1
		return t, job, true
	}
	return nil, Job{}, false
}

// maybeFinishLocked retires a task that was cancelled, or whose every
// job committed with persist=true, once its last in-flight run has
// drained. Dispatch exhaustion is not enough: during Stop the in-flight
// tail aborts without committing, and retiring the task then would
// finalize an incomplete sweep that the next start must instead resume.
// It returns the Done invocation to run outside the lock, or nil.
func (sc *Scheduler) maybeFinishLocked(t *Task) func() {
	if t.finished || t.inflight > 0 {
		return nil
	}
	if !t.cancelled && t.committed < len(t.Jobs) {
		return nil
	}
	t.finished = true
	t.cancel()
	// A cancelled task retires with its tail undispatched; give the
	// depth gauge those jobs back (zero for completed tasks).
	mQueueDepth.Add(-int64(len(t.Jobs) - t.cursor))
	// Compact the ring so long-retired tasks don't slow the scan.
	live := sc.tasks[:0]
	for _, c := range sc.tasks {
		if !c.finished {
			live = append(live, c)
		}
	}
	sc.tasks = live
	if sc.next >= len(sc.tasks) {
		sc.next = 0
	}
	if t.Done == nil {
		return nil
	}
	cancelled := t.cancelled
	done := t.Done
	return func() { done(cancelled) }
}

func (sc *Scheduler) worker() {
	defer sc.wg.Done()
	for {
		sc.mu.Lock()
		var t *Task
		var job Job
		for {
			if sc.closed || sc.ctx.Err() != nil {
				sc.mu.Unlock()
				return
			}
			var ok bool
			if t, job, ok = sc.pickLocked(); ok {
				break
			}
			sc.cond.Wait()
		}
		ctx := t.ctx
		sc.mu.Unlock()

		mJobsStarted.Inc()
		mBusyWorkers.Add(1)
		start := time.Now()
		stats := t.Run(ctx, job)
		took := time.Since(start)
		mBusyWorkers.Add(-1)
		// A run aborted by cancellation or shutdown must not be persisted:
		// its context-error stats would replay on resume as a completed
		// job. Clean results are kept even when cancellation raced in
		// after the run finished.
		persist := ctx.Err() == nil || stats.Err == ""
		countJob(stats, persist, took)
		if t.Commit != nil {
			t.Commit(job, stats, persist)
		}

		sc.mu.Lock()
		t.inflight--
		if persist {
			t.committed++
		}
		done := sc.maybeFinishLocked(t)
		sc.cond.Broadcast()
		sc.mu.Unlock()
		if done != nil {
			done()
		}
	}
}
