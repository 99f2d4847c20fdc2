package eta2

import (
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"eta2/internal/core"
	"eta2/internal/loop"
	"eta2/internal/truth"
	"eta2/internal/wal"
)

// serverState is the server's one state, published immutable (DESIGN.md
// §11): what the lock-free query surface reads is what the snapshot codec
// writes. Every committed mutation publishes a fresh serverState via
// publishLocked; a reader — a query, SaveStateBinary, a compaction, a
// follower bootstrap — loads the pointer once and reads freely, because
// nothing reachable from a published serverState is ever mutated again:
//
//   - users, tasks, pending, observations, domainOf and truths are columns.
//     A captured slice header freezes its prefix: writers only append past
//     it, and the writers that change an entry below it — a capacity update
//     of a registered user, a described create whose clustering moves old
//     tasks, every CloseTimeStep — write into a copy and swap the header.
//   - userPos, the id → position index of users, is replaced, never written,
//     by a batch that registers a new id.
//   - store is replace-on-write by one flat copy: CloseTimeStep commits
//     into a Clone and swaps the pointer, and CreateTasks clones before
//     folding domain merges. The published *truth.Store, and the rows its
//     State() hands the snapshot encoder, are only ever read.
//   - cluster is a value captured whenever the clustering changes
//     (construction, restore, a described create); nil without clustering.
//   - the scalar fields are plain copies.
//
// The fields down to cluster are the persistable state, in the order
// codec.go writes them; lastLSN is published with them, so a capture is
// labelled with exactly the LSN it contains. The journal pointer is included
// so DurabilityStats and journalCommit run without touching s.mu; wal.Log
// has its own internal synchronization and tolerates Stats/Commit after
// Close.
type serverState struct {
	alpha, gamma, epsilon float64

	users   []User           // in registration order
	userPos map[UserID]int32 // id → position in users

	tasks        []core.Task
	domainOf     []DomainID // len == len(tasks)
	pending      []TaskID
	truths       []TruthEstimate // len <= len(tasks); Observations == 0: no estimate
	day          int
	observations []Observation // of the open day
	store        *truth.Store
	cluster      *loop.DomainsState

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

// cloneUsersWith returns the user column and its index with batch applied in
// order: a new id is appended — in place, past every published header — and
// indexed in a copy of the index; a registered user's entry changes in a copy
// of the column. Each copy is made at most once per batch, and a batch that
// needs neither hands back the containers it was given. A capacity update
// without a name keeps the user's name.
func cloneUsersWith(col []User, pos map[UserID]int32, batch []User) ([]User, map[UserID]int32) {
	published := len(col)
	colCopied, posCopied := false, false
	for _, u := range batch {
		i, registered := pos[u.ID]
		if !registered {
			if !posCopied {
				pos, posCopied = maps.Clone(pos), true
			}
			pos[u.ID] = int32(len(col))
			col = append(col, u)
			continue
		}
		if int(i) < published && !colCopied {
			col, colCopied = slices.Clone(col), true
		}
		if u.Name == "" {
			u.Name = col[i].Name
		}
		col[i] = u
	}
	return col, pos
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
// held — or before the server is shared, during construction and recovery,
// where no lock is needed.
func (s *Server) publishLocked() {
	s.state.Store(&serverState{
		alpha:          s.cfg.alpha,
		gamma:          s.cfg.gamma,
		epsilon:        s.cfg.epsilon,
		users:          s.users,
		userPos:        s.userPos,
		tasks:          s.tasks,
		domainOf:       s.domainOf,
		pending:        s.pending,
		truths:         s.truths,
		day:            s.day,
		observations:   s.observations,
		store:          s.store,
		cluster:        s.cluster,
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

// loadState returns the current state: what a query reads and what
// SaveStateBinary, a compaction and a follower bootstrap encode. The pointer
// is never nil: newServer and restoreServer publish before the server
// escapes.
func (s *Server) loadState() *serverState {
	return s.state.Load()
}
