package eta2

import (
	"runtime"
	"sync"
	"sync/atomic"

	"eta2/internal/obs"
	"eta2/internal/rcu"
)

// Server-level gauges, published after every committed mutation (and once
// after recovery/restore). The obs registry is process-wide, so when a
// process hosts several servers the gauges reflect the one that mutated
// last — a serving process owns exactly one; see DESIGN.md §13.
var (
	mDay = obs.Default().Gauge("eta2_server_day",
		"Current time-step index (advances at CloseTimeStep).")
	mUsers = obs.Default().Gauge("eta2_server_users",
		"Registered users.")
	mTasks = obs.Default().Gauge("eta2_server_tasks",
		"Tasks created since the server started (all time steps).")
	mPendingTasks = obs.Default().Gauge("eta2_server_pending_tasks",
		"Tasks created since the last closed step, awaiting allocation.")
	mBufferedObs = obs.Default().Gauge("eta2_server_observations_buffered",
		"Observations submitted this step and not yet folded into truth analysis.")
	mObsAccepted = obs.Default().Counter("eta2_server_observations_accepted_total",
		"Observations accepted across the process lifetime (replay included).")
	mStepsClosed = obs.Default().Counter("eta2_server_steps_closed_total",
		"Time steps closed across the process lifetime (replay included).")
)

// Read-snapshot publication and compaction metrics (DESIGN.md §11). The
// publish counter ticks once per committed mutation batch; the timestamp
// gauge turns into snapshot age with `time() -
// eta2_server_snapshot_publish_timestamp_seconds` in PromQL.
var (
	mSnapshotPublishes = obs.Default().Counter("eta2_server_snapshot_publishes_total",
		"Immutable read-state snapshots published (one per committed mutation batch).")
	mSnapshotPublishTS = obs.Default().Gauge("eta2_server_snapshot_publish_timestamp_seconds",
		"Unix time of the newest published read-state snapshot; time() minus this is the snapshot age.")
	mSnapshotBytes = obs.Default().HistogramVec("eta2_server_snapshot_bytes",
		"Encoded size of persisted state snapshots, by codec.",
		obs.ExpBuckets(4096, 4, 10), obs.Label("codec", "binary"))
	mSnapshotBytesBinary = mSnapshotBytes.With("binary")

	mCompactionDuration = obs.Default().HistogramVec("eta2_server_compaction_duration_seconds",
		"Wall time of one snapshot+truncate compaction cycle, by where it ran.",
		obs.ExpBuckets(0.001, 2, 14), obs.Label("mode", "background", "foreground"))
	mCompactionBackground = mCompactionDuration.With("background")
	mCompactionForeground = mCompactionDuration.With("foreground")
	mCompactionsFailed    = obs.Default().Counter("eta2_server_compactions_failed_total",
		"Compaction cycles that aborted on an error (the size threshold retries at the next closed step).")
	mJournalFailed = obs.Default().Gauge("eta2_server_journal_failed",
		"1 once the journal failed: a failed append, commit or sync left the WAL refusing every later write.")
)

// Follower-side replication metrics (the primary-side shipping counters
// live in internal/repl). Updated by the Follower pull loop; all zero on
// a process that never opened a follower.
var (
	mReplApplied = obs.Default().Counter("eta2_repl_applied_records_total",
		"Shipped WAL records applied by the replication follower.")
	mReplAppliedLSN = obs.Default().Gauge("eta2_repl_applied_lsn",
		"Newest LSN applied by the replication follower.")
	mReplPrimaryFrontier = obs.Default().Gauge("eta2_repl_primary_frontier_lsn",
		"Primary's committed frontier as of the follower's last successful fetch.")
	mReplLagRecords = obs.Default().Gauge("eta2_repl_lag_records",
		"Records between the primary's committed frontier and the follower's applied LSN.")
	mReplLagSeconds = obs.Default().Gauge("eta2_repl_lag_seconds",
		"How long the follower has continuously been behind the primary's frontier.")
	mReplReconnects = obs.Default().Counter("eta2_repl_reconnects_total",
		"Follower fetch failures that forced a backoff and reconnect.")
	mReplBootstraps = obs.Default().Counter("eta2_repl_snapshot_bootstraps_total",
		"Full snapshot bootstraps performed by the follower.")
	mReplPromotions = obs.Default().Counter("eta2_repl_promotions_total",
		"Follower-to-primary promotions performed by this process.")
)

// Memory-model metrics (DESIGN.md §15): the intern-table gauges track the
// published state's name index, and the ingest sampler estimates allocations
// per SubmitObservations by differencing runtime.MemStats once every
// ingestSampleEvery submits — cheap enough for steady state (ReadMemStats
// briefly stops the world, so it must never run per-op).
var (
	mInternStrings = obs.Default().Gauge("eta2_intern_strings_total",
		"External string ids interned into the server-wide name table.")
	mInternBytes = obs.Default().Gauge("eta2_intern_bytes",
		"Bytes of interned string data held by the name table (names only, map overhead excluded).")
	mIngestAllocs = obs.Default().Gauge("eta2_ingest_allocs_per_op",
		"Process-wide heap allocations per SubmitObservations call, sampled over the last ~1k submits.")
	mHeapAlloc = obs.Default().Gauge("eta2_heap_alloc_bytes",
		"Live heap bytes (runtime.MemStats.HeapAlloc) at the last ingest sample.")
)

// ingestSampleEvery is the SubmitObservations sampling period. A power of
// two keeps the fast path to one atomic add and one mask.
const ingestSampleEvery = 1024

var ingestSampler struct {
	ops atomic.Uint64 // total sampled submits, bumped on every call

	mu          sync.Mutex // guards the baseline below
	lastOps     uint64
	lastMallocs uint64
}

// ingestAllocSample ticks the submit counter and, once every
// ingestSampleEvery calls, refreshes eta2_ingest_allocs_per_op and
// eta2_heap_alloc_bytes from a MemStats delta. Mallocs is process-wide,
// so the gauge reads as "allocations per submit across the process" — a
// regression on the supposedly zero-alloc path shows up as a sustained
// rise under pure-ingest load.
func ingestAllocSample() {
	n := ingestSampler.ops.Add(1)
	if n%ingestSampleEvery != 0 {
		return
	}
	ingestSampler.mu.Lock()
	defer ingestSampler.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ingestSampler.lastOps != 0 && n > ingestSampler.lastOps {
		dOps := n - ingestSampler.lastOps
		mIngestAllocs.Set(float64(ms.Mallocs-ingestSampler.lastMallocs) / float64(dOps))
	}
	mHeapAlloc.Set(float64(ms.HeapAlloc))
	ingestSampler.lastOps = n
	ingestSampler.lastMallocs = ms.Mallocs
}

// publishMetrics counts the publish the Write holding tx is about to make
// and refreshes the server-shape gauges from the state it publishes: a
// handful of atomic stores.
func publishMetrics(tx *rcu.Tx[serverState]) {
	mSnapshotPublishes.Inc()
	mSnapshotPublishTS.SetToCurrentTime()
	mDay.Set(float64(tx.W.day))
	mUsers.Set(float64(len(tx.W.users)))
	mTasks.Set(float64(len(tx.W.tasks)))
	mPendingTasks.Set(float64(len(tx.W.pending)))
	mBufferedObs.Set(float64(len(tx.W.observations)))
	mInternStrings.Set(float64(len(tx.W.userByName)))
	mInternBytes.Set(float64(tx.W.nameBytes))
}
