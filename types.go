// Package eta2 is a Go implementation of ETA² — Expertise-aware Truth
// Analysis and Task Allocation for mobile crowdsourcing (Zhang, Wu, Huang,
// Ji, Cao; ICDCS 2017).
//
// A crowdsourcing server using this package runs a repeating loop:
//
//  1. Create tasks from natural-language descriptions (CreateTasks). The
//     server clusters them into expertise domains with pair-word semantic
//     analysis and dynamic hierarchical clustering.
//  2. Allocate tasks to users (AllocateMaxQuality or AllocateMinCost),
//     matching tasks to the users with the highest learned expertise in
//     their domain, subject to per-user processing capacities — and, for
//     min-cost, subject to a probabilistic data-quality requirement at
//     minimum recruiting cost.
//  3. Submit the users' observations (SubmitObservations) and close the
//     time step (CloseTimeStep): the server estimates each task's truth by
//     expertise-aware maximum-likelihood estimation and updates every
//     user's per-domain expertise with exponential decay.
//
// Servers can run purely in memory, persist explicit snapshots
// (SaveStateBinary/LoadServer), or run fully durable: WithDurability journals
// every mutation to a write-ahead log and recovers the exact pre-crash
// state on the next start (see DESIGN.md §10).
//
// The internal packages expose the substrates individually (embedding
// training, clustering, MLE truth analysis, allocation solvers, baselines,
// dataset generators, the evaluation harness); this package is the
// production-facing façade.
package eta2

import (
	"time"

	"eta2/internal/allocation"
	"eta2/internal/core"
	"eta2/internal/embedding"
	"eta2/internal/state"
)

// Re-exported identifier types. Aliases keep values interchangeable with
// the internal packages.
type (
	// TaskID identifies a task.
	TaskID = core.TaskID
	// UserID identifies a user.
	UserID = core.UserID
	// DomainID identifies a learned expertise domain.
	DomainID = core.DomainID
	// User is a recruitable user with a per-time-step processing capacity
	// in hours.
	User = core.User
	// Observation is one reported value.
	Observation = core.Observation
	// Pair is one (user, task) allocation decision.
	Pair = core.Pair
	// Allocation is a set of allocation decisions.
	Allocation = core.Allocation
	// MinCostOutcome reports the result of a min-cost allocation round.
	MinCostOutcome = allocation.MinCostResult
	// Embedder supplies word vectors for semantic task analysis.
	Embedder = embedding.Embedder
)

// DomainNone marks a task whose expertise domain is not yet known.
const DomainNone = core.DomainNone

// TaskSpec describes a task being created at the server: its description
// or domain hint, processing time and recruiting cost.
type TaskSpec = state.TaskSpec

// TruthEstimate is the server's estimate for one task after a time step.
type TruthEstimate = state.TruthEstimate

// StepReport summarizes a closed time step.
type StepReport = state.StepReport

// FsyncPolicy selects when the durable server's write-ahead log is
// flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways flushes after every journaled mutation: no acknowledged
	// write is ever lost. The default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval flushes lazily, at most every FsyncEvery, plus a
	// forced flush whenever a time step closes. A crash loses at most the
	// last interval's mutations; recovery still stops cleanly at the torn
	// tail.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves flushing to the OS. Recovery correctness is
	// unaffected — only durability across power loss is.
	FsyncNever FsyncPolicy = "never"
)

// DurabilityPolicy tunes the durable mode enabled by WithDurability. The
// zero value is valid: fsync-always, 1 MiB segments, compaction once the
// log passes 8 MiB.
type DurabilityPolicy struct {
	// Fsync is the WAL flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the maximum time between flushes under FsyncInterval
	// (default 100ms).
	FsyncEvery time.Duration
	// CompactAt is the WAL size in bytes that triggers an automatic
	// snapshot+truncate compaction at the next closed time step (default
	// 8 MiB; negative disables automatic compaction — Compact can still
	// be called explicitly).
	CompactAt int64
	// SegmentSize is the WAL segment rotation size in bytes (default
	// 1 MiB).
	SegmentSize int64
	// FsyncDelay adds artificial latency to every WAL fsync. It is a
	// test seam, not a serving option: its only caller is
	// TestLockFreeReadsDuringDurableStorm, which needs fsyncs slow enough
	// (network-block-storage slow, not write-back-cache fast) to prove
	// reads never wait behind one. ROADMAP item 4's injectable
	// filesystem seam replaces it. Leave zero in production.
	FsyncDelay time.Duration
}

// DurabilityStats describes the durable mode's current state, as exposed
// by the GET /v1/admin/durability endpoint.
type DurabilityStats struct {
	// Enabled reports whether the server journals mutations at all.
	Enabled bool
	// Dir is the durable data directory.
	Dir string
	// Segments and WALBytes describe the live write-ahead log.
	Segments int
	WALBytes int64
	// LastLSN is the sequence number of the newest journaled (applied)
	// mutation; SnapshotLSN is the newest mutation the latest snapshot
	// covers. Their difference is the replay work a crash right now would
	// need.
	LastLSN     uint64
	SnapshotLSN uint64
	// CommittedLSN is the newest mutation acknowledged per the fsync
	// policy — the replication shipping frontier. Replication lag is
	// computable from either side: a primary's CommittedLSN minus a
	// follower's LastLSN is the lag in records.
	CommittedLSN uint64
	// Compactions counts snapshot+truncate cycles since startup;
	// LastCompaction is when the newest one finished (zero if none ran
	// this process).
	Compactions    int
	LastCompaction time.Time
	// JournalError is the journal's failure, empty while it is healthy. Once
	// a failed append, commit or sync leaves the log refusing every later
	// write, the node has failed: every mutation answers ErrJournalFailed
	// until a restart recovers from what reached the disk, and reads keep
	// serving the acknowledged state.
	JournalError string
}

// ReplicationStatus describes a node's position in a replication
// topology, as exposed by GET /v1/admin/replication. For a standalone or
// primary server only Role, AppliedLSN, and CommittedLSN are meaningful;
// the remaining fields describe a follower's view of its primary.
type ReplicationStatus struct {
	// Role is "primary" or "follower".
	Role string
	// Primary is the primary's base URL (followers only) — the address a
	// rejected write is redirected to.
	Primary string
	// AppliedLSN is the newest mutation applied to this node's state.
	AppliedLSN uint64
	// CommittedLSN is the node's own WAL acknowledgement frontier (what
	// it would ship onward).
	CommittedLSN uint64
	// PrimaryFrontier is the primary's committed frontier as of the last
	// successful fetch (followers; primaries report their own frontier).
	PrimaryFrontier uint64
	// LagRecords is max(PrimaryFrontier - AppliedLSN, 0); LagSeconds is
	// how long the follower has been behind that frontier (0 when caught
	// up).
	LagRecords uint64
	LagSeconds float64
	// Connected reports whether the follower's last fetch succeeded.
	Connected bool
	// Reconnects counts fetch failures that forced a backoff+retry;
	// SnapshotBootstraps counts full snapshot re-bootstraps (first sync
	// included).
	Reconnects         uint64
	SnapshotBootstraps uint64
}

// EmbeddingModel is a trained skip-gram model. Beyond the Embedder
// interface it supports Save, whose bytes eta2server -model reloads.
type EmbeddingModel = embedding.Model

// TrainEmbedder trains a skip-gram embedding model on the provided
// tokenized corpus. For quick starts, BuiltinEmbedder is this model trained
// on the builtin synthetic corpus at seed 2, shipped in the binary.
func TrainEmbedder(corpus [][]string, seed int64) (*EmbeddingModel, error) {
	return embedding.Train(corpus, embedding.TrainConfig{Seed: seed})
}

// BuiltinEmbedder loads the builtin skip-gram model, which covers common
// mobile-sensing domains; eta2server -semantic runs the same one.
func BuiltinEmbedder() (*EmbeddingModel, error) { return embedding.Builtin() }
