package engine

import "github.com/multiradio/chanalloc/internal/obs"

// Engine metrics, shared by every backend: jobs flow through the same
// counters whether the in-process pool, a subprocess shard, a dialed
// socket peer or a registered cluster member ran them. All increments sit
// on per-job or per-frame paths (microseconds and up) where a single
// atomic add is free; nothing here is read back by dispatch logic, so
// results stay byte-identical with metrics hot or cold.
var (
	mBatches     = obs.NewCounter("engine_batches_total")
	mDispatched  = obs.NewCounter("engine_jobs_dispatched_total")
	mCompleted   = obs.NewCounter("engine_jobs_completed_total")
	mRequeues    = obs.NewCounter("engine_requeues_total")
	mHeartbeats  = obs.NewCounter("engine_heartbeats_total")
	mEvictions   = obs.NewCounter("engine_evictions_total")
	mPeers       = obs.NewGauge("engine_peers")
	mInflight    = obs.NewGauge("engine_inflight_jobs")
	mWindowDepth = obs.NewHistogram("engine_peer_window_depth", obs.SmallCountBuckets)
	mDispatchLat = obs.NewHistogram("engine_dispatch_latency_ns", obs.LatencyBucketsNS)
	// Job frames that carried the batch's params blob: one per worker
	// connection per batch on the remote backends.
	mParamsFrames = obs.NewCounter("engine_params_frames_total")

	// Checkpoint-journal traffic (remote backends with WithJournal):
	// entries appended vs. jobs skipped on resume. A resumed sweep should
	// show journal_writes + resumed_jobs == the batch size.
	mJournalWrites = obs.NewCounter("engine_journal_writes_total")
	mResumedJobs   = obs.NewCounter("engine_resumed_jobs_total")
)
