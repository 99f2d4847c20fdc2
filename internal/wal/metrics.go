package wal

import "eta2/internal/obs"

// Package-level WAL metrics (process-wide across all open logs; one
// serving process normally owns exactly one log). See DESIGN.md §13.
var (
	mFsyncDur = obs.Default().Histogram("eta2_wal_fsync_duration_seconds",
		"Latency of WAL commit syncs (fdatasync on Linux, fsync elsewhere), including the test-only SyncDelay.",
		obs.ExpBuckets(1e-5, 4, 10))
	mFsyncs = obs.Default().Counter("eta2_wal_fsyncs_total",
		"WAL commit syncs issued (group commit: one per leader, covering a batch).")
	mBatchRecords = obs.Default().Histogram("eta2_wal_group_commit_batch_records",
		"Records made durable by a single group-commit sync.",
		obs.ExpBuckets(1, 2, 10))
	mGathers = obs.Default().CounterVec("eta2_wal_commit_gathers_total",
		"SyncAlways commit leaders that waited for the last sync's crowd of committers before syncing: joined when it came, expired when half the last sync's duration ran out first.",
		obs.Label("outcome", "joined", "expired"))
	mGathersJoined  = mGathers.With("joined")
	mGathersExpired = mGathers.With("expired")

	mAppendRecords = obs.Default().Counter("eta2_wal_appended_records_total",
		"Records appended to the WAL (buffered; durability follows at commit).")
	mAppendBytes = obs.Default().Counter("eta2_wal_appended_bytes_total",
		"Bytes appended to the WAL, headers included.")
	mRotations = obs.Default().Counter("eta2_wal_segment_rotations_total",
		"Segment seal-and-rotate events (excludes the initial segment creation).")
	mReplayed = obs.Default().Counter("eta2_wal_replayed_records_total",
		"Records streamed by Replay during recovery.")
	mTornBytes = obs.Default().Counter("eta2_wal_recovery_torn_bytes_total",
		"Bytes discarded at Open as torn or corrupt tails.")
)
