package eta2

import (
	"sync/atomic"
	"time"

	"eta2/internal/truth"
	"eta2/internal/wal"
)

// serverState is the immutable read snapshot behind the server's lock-free
// query surface (DESIGN.md §11). Every committed mutation publishes a fresh
// serverState via publishLocked; readers load the pointer once and read
// freely — nothing reachable from a published serverState is ever mutated
// again:
//
//   - users is a copy-on-write map: AddUsers builds a fresh map and swaps
//     it in, so the map a reader holds is frozen.
//   - domainOf and truths are per-task columns indexed by the dense TaskID.
//     A captured slice header freezes its prefix: CreateTasks only appends
//     past it, and the two writers that change an entry below it — a
//     described create whose clustering moves old tasks, and every
//     CloseTimeStep — write into a copy and swap the header.
//   - store is replace-on-write by one flat copy: CloseTimeStep commits
//     into a Clone and swaps the pointer, and CreateTasks clones before
//     folding domain merges. The published *truth.Store, and the rows its
//     State() hands a snapshot encoder, are only ever read.
//   - the scalar fields are plain copies.
//
// The journal pointer is included so DurabilityStats and journalCommit run
// without touching s.mu; wal.Log has its own internal synchronization and
// tolerates Stats/Commit after Close.
type serverState struct {
	users    map[UserID]User
	domainOf []DomainID      // len == numTasks
	truths   []TruthEstimate // Observations == 0: no estimate
	store    *truth.Store
	day      int
	numTasks int

	journal        *wal.Log
	journalDir     string
	lastLSN        uint64
	snapLSN        uint64
	compactions    int
	lastCompaction time.Time

	// Replication role (see replication.go). role only ever transitions
	// follower → primary (promotion), never back, so a writability check
	// against one published snapshot cannot be invalidated into accepting
	// a write on a node that is still a follower.
	role        serverRole
	primaryAddr string

	// domainCount caches numDomains() for this snapshot: 0 means not yet
	// computed, anything else is count+1. domainOf is frozen once the
	// snapshot is published, so the count is computed at most once per
	// snapshot instead of allocating a scratch set on every read.
	domainCount atomic.Int64
}

// domain returns the domain of a task, DomainNone for one the snapshot
// does not hold.
func (st *serverState) domain(id TaskID) DomainID {
	if int(id) < 0 || int(id) >= len(st.domainOf) {
		return DomainNone
	}
	return st.domainOf[id]
}

// truth returns the latest estimate of a task, if it has one.
func (st *serverState) truth(id TaskID) (TruthEstimate, bool) {
	if int(id) < 0 || int(id) >= len(st.truths) {
		return TruthEstimate{}, false
	}
	est := st.truths[id]
	return est, est.Observations > 0
}

// numDomains counts the distinct domains assigned in this snapshot. The
// first caller pays the O(tasks) scan; concurrent first callers compute the
// same value, so the racing Store is idempotent.
func (st *serverState) numDomains() int {
	if v := st.domainCount.Load(); v != 0 {
		return int(v - 1)
	}
	seen := make(map[DomainID]struct{}) //eta2:allocdiscipline-ok once per published snapshot, not per request
	for _, d := range st.domainOf {
		seen[d] = struct{}{}
	}
	st.domainCount.Store(int64(len(seen)) + 1)
	return len(seen)
}

// publishLocked installs the current master state as the new immutable read
// snapshot and refreshes the server-shape gauges. It is the ONLY place that
// may store to s.state (enforced by the lockdiscipline analyzer): every
// writer calls it exactly once per committed mutation batch, with s.mu
// write-held — or before the server is shared, during construction and
// recovery, where no lock is needed.
func (s *Server) publishLocked() {
	s.state.Store(&serverState{
		users:          s.users,
		domainOf:       s.domainOf,
		truths:         s.truths,
		store:          s.store,
		day:            s.day,
		numTasks:       len(s.tasks),
		journal:        s.journal, //eta2:snapshotimmutability-ok the WAL handle is internally synchronized infrastructure, published for lock-free durability waits and stats, not frozen snapshot data
		journalDir:     s.journalDir,
		lastLSN:        s.lastLSN,
		snapLSN:        s.snapLSN,
		compactions:    s.compactions,
		lastCompaction: s.lastCompaction,
		role:           s.role,
		primaryAddr:    s.primaryAddr,
	})
	mSnapshotPublishes.Inc()
	mSnapshotPublishTS.SetToCurrentTime()
	s.publishMetricsLocked()
}

// loadState returns the current read snapshot. The pointer is never nil:
// newServer and restoreServer publish before the server escapes.
func (s *Server) loadState() *serverState {
	return s.state.Load()
}
