package campaign

import (
	"context"
	"sync"
	"testing"
	"time"
)

func schedJobs(cell string, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Cell: CellKey{Topology: cell, Regime: "r", Engine: "sim"},
			Seed: int64(i),
		}
	}
	return jobs
}

// TestSchedulerFairShare pins the fair-share policy: with one worker and
// two active tasks, dispatch strictly alternates — the second sweep is
// not starved behind the first one's backlog.
func TestSchedulerFairShare(t *testing.T) {
	sc := NewScheduler(1)
	defer sc.Stop()

	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	doneA, doneB := make(chan bool, 1), make(chan bool, 1)

	mkTask := func(id string, n int, done chan bool) *Task {
		return &Task{
			ID:   id,
			Jobs: schedJobs(id, n),
			Run: func(ctx context.Context, job Job) RunStats {
				<-gate // hold the single worker until both tasks are queued
				return RunStats{}
			},
			Commit: func(job Job, stats RunStats, persist bool) {
				if !persist {
					t.Errorf("job %v committed with persist=false", job)
				}
				mu.Lock()
				order = append(order, job.Cell.Topology)
				mu.Unlock()
			},
			Done: func(cancelled bool) { done <- cancelled },
		}
	}
	sc.Submit(mkTask("a", 4, doneA))
	sc.Submit(mkTask("b", 4, doneB))
	close(gate)

	for _, ch := range []chan bool{doneA, doneB} {
		select {
		case cancelled := <-ch:
			if cancelled {
				t.Fatal("task reported cancelled")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("task never completed")
		}
	}

	if len(order) != 8 {
		t.Fatalf("executed %d jobs, want 8: %v", len(order), order)
	}
	// The single worker claimed one "a" job before "b" was submitted; from
	// then on the round-robin ring alternates strictly.
	for i := 1; i+1 < len(order); i++ {
		if order[i] == order[i+1] {
			t.Fatalf("dispatch not fair-shared: %v", order)
		}
	}
}

// TestSchedulerCancel pins the cancellation contract: no further jobs
// dispatch, in-flight runs see their context cancelled and commit with
// persist=false, and Done(true) fires exactly once after the drain.
func TestSchedulerCancel(t *testing.T) {
	sc := NewScheduler(1)
	defer sc.Stop()

	started := make(chan struct{}, 5)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // keep a failed assertion from deadlocking sc.Stop
	var mu sync.Mutex
	var commits []bool
	done := make(chan bool, 2)

	sc.Submit(&Task{
		ID:   "c",
		Jobs: schedJobs("c", 5),
		Run: func(ctx context.Context, job Job) RunStats {
			started <- struct{}{}
			<-release
			if ctx.Err() != nil {
				return RunStats{Err: ctx.Err().Error()}
			}
			return RunStats{}
		},
		Commit: func(job Job, stats RunStats, persist bool) {
			mu.Lock()
			commits = append(commits, persist)
			mu.Unlock()
		},
		Done: func(cancelled bool) { done <- cancelled },
	})

	<-started // first job is in flight
	if !sc.Cancel("c") {
		t.Fatal("Cancel returned false for an active task")
	}
	if sc.Cancel("c") {
		t.Fatal("second Cancel returned true")
	}
	unblock()

	select {
	case cancelled := <-done:
		if !cancelled {
			t.Fatal("Done(false) after Cancel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Done never fired")
	}
	select {
	case <-done:
		t.Fatal("Done fired twice")
	case <-time.After(50 * time.Millisecond):
	}

	mu.Lock()
	defer mu.Unlock()
	if len(commits) != 1 {
		t.Fatalf("%d commits after cancelling with 1 in flight, want 1", len(commits))
	}
	if commits[0] {
		t.Fatal("aborted in-flight run committed with persist=true")
	}
}

// TestSchedulerStopAbandonsPending pins the restart-resume contract:
// Stop drains in-flight runs but never calls Done for unfinished tasks,
// leaving their manifests in the resumable state.
func TestSchedulerStopAbandonsPending(t *testing.T) {
	sc := NewScheduler(1)
	started := make(chan struct{})
	doneFired := make(chan bool, 1)
	sc.Submit(&Task{
		ID:   "s",
		Jobs: schedJobs("s", 100),
		Run: func(ctx context.Context, job Job) RunStats {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return RunStats{Err: ctx.Err().Error()}
		},
		Done: func(cancelled bool) { doneFired <- cancelled },
	})
	<-started
	sc.Stop()
	select {
	case <-doneFired:
		t.Fatal("Done fired for a task abandoned by Stop")
	default:
	}
}

// TestSchedulerStopDoesNotFinalizeTail is the graceful-shutdown guard:
// when Stop hits a task whose every job has been dispatched but whose
// last in-flight runs abort without committing — the common tail of any
// sweep — the task must NOT retire. Done(false) there would finalize an
// incomplete sweep's manifest and the restart would never resume it.
func TestSchedulerStopDoesNotFinalizeTail(t *testing.T) {
	sc := NewScheduler(2)
	started := make(chan struct{}, 2)
	doneFired := make(chan bool, 1)
	var mu sync.Mutex
	var persisted []bool
	sc.Submit(&Task{
		ID:   "tail",
		Jobs: schedJobs("tail", 2), // one per worker: dispatch exhausts immediately
		Run: func(ctx context.Context, job Job) RunStats {
			started <- struct{}{}
			<-ctx.Done()
			return RunStats{Err: ctx.Err().Error()}
		},
		Commit: func(job Job, stats RunStats, persist bool) {
			mu.Lock()
			persisted = append(persisted, persist)
			mu.Unlock()
		},
		Done: func(cancelled bool) { doneFired <- cancelled },
	})
	<-started
	<-started // both jobs in flight, cursor == len(Jobs)
	sc.Stop()
	mu.Lock()
	defer mu.Unlock()
	for _, p := range persisted {
		if p {
			t.Fatal("aborted tail run committed with persist=true")
		}
	}
	select {
	case <-doneFired:
		t.Fatal("Done fired for a task whose in-flight tail aborted at Stop")
	default:
	}
}

// TestSchedulerEmptyTaskFinishes: a task submitted with no jobs — a
// resumed sweep whose grid had fully committed before the crash — must
// finish immediately with Done(false), so the server finalizes its
// report instead of leaving the manifest "running" forever.
func TestSchedulerEmptyTaskFinishes(t *testing.T) {
	sc := NewScheduler(1)
	defer sc.Stop()
	done := make(chan bool, 1)
	sc.Submit(&Task{ID: "empty", Done: func(c bool) { done <- c }})
	select {
	case cancelled := <-done:
		if cancelled {
			t.Fatal("empty task reported cancelled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("empty task never finished")
	}
	if sc.Active() != 0 {
		t.Fatalf("%d active tasks after empty task finished, want 0", sc.Active())
	}
}
