package serve

import (
	"cliffedge/internal/campaign"
	"cliffedge/internal/obs"
)

var (
	mJobsCommitted = obs.NewCounter("cliffedge_serve_jobs_committed_total",
		"Sweep jobs durably committed to a result log.")
	mAdmissionRejects = obs.NewCounter("cliffedge_serve_admission_rejects_total",
		"Campaign submissions rejected 429 by the per-client admission cap.")
	mSSESubscribers = obs.NewGauge("cliffedge_serve_sse_subscribers",
		"SSE progress streams currently connected.")
	mSSEReplays = obs.NewCounter("cliffedge_serve_sse_replays_total",
		"SSE connections that resumed from a Last-Event-ID/since cursor.")
	mActiveSweeps = obs.NewGauge("cliffedge_serve_active_sweeps",
		"Sweeps currently running on this server.")
)

// Paper-grounded derived series, folded run by run on the sweeps' single
// commit path. The PACT'13 locality claim prices coordination against the
// crashed regions' borders, so the headline live gauge is messages per
// border node; the stall rate is the CD7 view — among runs whose final
// faulty domains had alive border nodes at all, how many left a domain
// undecided.
var (
	dMessages = obs.NewCounter("cliffedge_derived_messages_total",
		"Protocol messages over all committed runs (derived-gauge numerator).")
	dBorder = obs.NewCounter("cliffedge_derived_border_nodes_total",
		"Final-domain border sizes summed over committed runs (denominator).")
	dEligible = obs.NewCounter("cliffedge_derived_stall_eligible_runs_total",
		"Committed runs with at least one alive border node (stall-eligible).")
	dStalled = obs.NewCounter("cliffedge_derived_stalled_runs_total",
		"Committed runs in which a bordered faulty cluster produced no decision.")
)

func init() {
	obs.NewGaugeFunc("cliffedge_derived_msgs_per_border_node",
		"Mean protocol messages per border node over committed runs.",
		func() float64 {
			b := dBorder.Load()
			if b == 0 {
				return 0
			}
			return float64(dMessages.Load()) / float64(b)
		})
	obs.NewGaugeFunc("cliffedge_derived_stall_rate",
		"Share of stall-eligible committed runs that stalled (CD7 estimator).",
		func() float64 {
			e := dEligible.Load()
			if e == 0 {
				return 0
			}
			return float64(dStalled.Load()) / float64(e)
		})
}

// publishCommit folds one durably committed run into the serve counters
// and the derived-gauge accumulators. Called from the sweeps' single
// commit path, so the CLI runner, the HTTP scheduler and the fleet merge
// all feed the same estimators.
func publishCommit(stats campaign.RunStats) {
	mJobsCommitted.Inc()
	dMessages.Add(uint64(stats.Messages))
	dBorder.Add(uint64(stats.Border))
	if stats.ExpectedDeciders > 0 {
		dEligible.Inc()
		if stats.Stalled {
			dStalled.Inc()
		}
	}
}
