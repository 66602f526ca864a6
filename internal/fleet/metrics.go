package fleet

import "cliffedge/internal/obs"

var (
	mLeases = obs.NewCounter("cliffedge_fleet_shard_leases_total",
		"Shard leases handed to workers (re-leases included).")
	mReassignments = obs.NewCounter("cliffedge_fleet_shard_reassignments_total",
		"Shards returned to the pending set after a loss or remote failure.")
	mShardsDone = obs.NewCounter("cliffedge_fleet_shards_completed_total",
		"Shards whose remote campaign finished with full job coverage.")
	mProbes = obs.NewCounter("cliffedge_fleet_worker_probes_total",
		"Health probes launched against lost workers.")
	mWorkersLost = obs.NewGauge("cliffedge_fleet_workers_lost",
		"Workers currently marked lost (re-leased away, awaiting revival).")
	mSyncBatches = obs.NewCounter("cliffedge_fleet_sync_batches_total",
		"Incremental result-log fetches merged into fleet sweeps.")
	mSyncBytes = obs.NewCounter("cliffedge_fleet_sync_bytes_total",
		"Bytes of worker /results bodies read by the merge feed.")
	mSyncErrors = obs.NewCounter("cliffedge_fleet_sync_errors_total",
		"Result-log syncs that failed (fetch, decode, grid check or commit).")
	mRecordsMerged = obs.NewCounter("cliffedge_fleet_records_merged_total",
		"Worker records newly committed into a fleet's merged log.")
	mRecordsDeduped = obs.NewCounter("cliffedge_fleet_records_deduped_total",
		"Worker records fetched but already in the merged log (a re-run or re-attached shard's overlap).")
	mActiveFleets = obs.NewGauge("cliffedge_fleet_active",
		"Fleets with a live run loop on this coordinator.")
)
