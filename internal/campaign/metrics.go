package campaign

import (
	"time"

	"cliffedge/internal/obs"
)

// Pool metrics cost a handful of atomics and two clock reads per job —
// each job is a full protocol run, so the overhead is invisible next to
// the work it counts. Every executor is the Scheduler, so these series
// cover dedicated runs, served sweeps and fleet workers alike; once the
// pool drains, started = completed + aborted.
var (
	mJobsStarted = obs.NewCounter("cliffedge_campaign_jobs_started_total",
		"Campaign jobs handed to a worker.")
	mJobsCompleted = obs.NewCounter("cliffedge_campaign_jobs_completed_total",
		"Campaign jobs that ran to completion and were committed (including skips and errors).")
	mJobErrors = obs.NewCounter("cliffedge_campaign_job_errors_total",
		"Completed campaign jobs whose run reported an error.")
	mJobsSkipped = obs.NewCounter("cliffedge_campaign_jobs_skipped_total",
		"Completed campaign jobs skipped by the workload generator.")
	mJobsAborted = obs.NewCounter("cliffedge_campaign_jobs_aborted_total",
		"Campaign jobs aborted by cancellation or shutdown (not persisted).")
	mQueueDepth = obs.NewGauge("cliffedge_campaign_queue_depth",
		"Jobs accepted by the scheduler and not yet handed to a worker.")
	mBusyWorkers = obs.NewGauge("cliffedge_campaign_busy_workers",
		"Scheduler workers currently inside a run.")
	mJobDuration = obs.NewHistogram("cliffedge_campaign_job_duration_us",
		"Wall-clock duration of one campaign job, microseconds.")
)

// countJob records one finished run: its duration, and its outcome as
// either completed (with its error and skip flags) or aborted.
func countJob(stats RunStats, persist bool, took time.Duration) {
	mJobDuration.Observe(took.Microseconds())
	if !persist {
		mJobsAborted.Inc()
		return
	}
	mJobsCompleted.Inc()
	if stats.Err != "" {
		mJobErrors.Inc()
	}
	if stats.Skipped {
		mJobsSkipped.Inc()
	}
}
