package eta2

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"eta2/internal/allocation"
	"eta2/internal/core"
	"eta2/internal/loop"
	"eta2/internal/truth"
	"eta2/internal/wal"
)

// serverState is the one declaration of the server's state (DESIGN.md §11),
// held in the Server's rcu.Cell: writers change the working copy a Write hands
// them, and every successful Write publishes a copy of it. A reader — a
// query, SaveStateBinary, a compaction, a follower bootstrap — loads the
// published pointer once and reads freely: what the lock-free query surface
// reads is what the snapshot codec writes. The copy shares every container
// with the working copy, so a writer may assign a field of tx.W but never
// write through one (snapshotimmutability reads the reference-typed fields
// off this declaration). How each container changes:
//
//   - users, tasks, pending, observations, domainOf and truths are columns.
//     A captured slice header freezes its prefix: writers only append past
//     it, and the writers that change an entry below it — a capacity update
//     of a registered user, a described create whose clustering moves old
//     tasks, every CloseTimeStep — write into a copy and swap the header.
//   - userPos and userByName, the id and name indexes of users, are
//     replaced, never written, by a batch that registers a new id or name.
//   - store is replace-on-write by one flat copy: CloseTimeStep commits
//     into a Clone and swaps the pointer, and CreateTasks clones before
//     folding domain merges. The published *truth.Store, and the rows its
//     State() hands the snapshot encoder, are only ever read.
//   - cluster is a value captured whenever the clustering changes
//     (construction, restore, a described create); nil without clustering.
//   - domainCount is a cell the states holding one domainOf share; whoever
//     extends or replaces domainOf installs a fresh one.
//   - lastNewDomains is a column, dropped by the close that reports it.
//   - journal is a handle, not data: wal.Log has its own synchronization and
//     tolerates Stats/Commit after Close. It is here so DurabilityStats and
//     journalCommit run without taking the writer lock. Nil on an in-memory
//     server; attached in either replication role — a primary's own mutations
//     write it, a follower's pull loop feeds it the primary's records verbatim.
type serverState struct {
	persisted

	journal        *wal.Log //eta2:snapshotimmutability-ok the WAL handle is internally synchronized infrastructure, published for lock-free durability waits and stats, not frozen snapshot data
	journalDir     string
	lastLSN        uint64 // the newest record applied to persisted: a capture is labelled with exactly the LSN it contains
	snapLSN        uint64
	compactions    int
	lastCompaction time.Time

	// Replication role (see replication.go). rolePrimary (the zero value)
	// accepts writes; roleFollower rejects public mutations with
	// *FollowerWriteError and applies shipped records through applyEvent.
	// role only ever transitions follower → primary (promotion), never back,
	// so a writability check against one published state cannot be
	// invalidated into accepting a write on a node that is still a follower.
	role        serverRole
	primaryAddr string

	// What the open day's creates did to the domains, for its StepReport.
	lastNewDomains []DomainID
	lastMerges     int
}

// persisted is the part of the state that replay rebuilds and the snapshot
// codec writes, in the order codec.go writes it — the fields only an apply
// method, holding a journaled token, assigns (journalfirst reads this list).
// What serverState declares beside it belongs to the node and survives a
// snapshot bootstrap that replaces all of this.
type persisted struct {
	alpha, gamma, epsilon float64

	users      []User            // in registration order
	userPos    map[UserID]int32  // id → position in users
	userByName map[string]UserID // name → id of every named user
	nameBytes  int64             // bytes of the names in userByName
	nextUserID UserID            // one past the highest id in users: AddUsersByName's next

	tasks []core.Task
	// domainOf and truths are per-task columns indexed by the dense TaskID
	// (DESIGN.md §11 rule 2). len(domainOf) == len(tasks) in every published
	// state; truths reaches the highest task ever estimated, and an
	// entry with Observations == 0 means "no estimate yet" (a real one
	// always has at least one).
	domainOf     []DomainID
	pending      []TaskID // created since the last CloseTimeStep, awaiting allocation/observations
	truths       []TruthEstimate
	day          int
	observations []Observation // of the open day
	store        *truth.Store
	cluster      *loop.DomainsState

	// domainCount caches numDomains() for domainOf: 0 means not yet
	// computed, anything else is count+1. Derived, so the codec skips it.
	domainCount *atomic.Int64
}

// cloneUsersWith returns p with batch applied to the user column in order: a
// new id is appended — in place, past every published header — and indexed in
// a copy of the id index; a registered user's entry changes in a copy of the
// column; a name not yet bound is indexed in a copy of the name index. Each
// copy is made at most once per batch, and a batch that needs none hands back
// the containers it was given. A capacity update without a name keeps the
// user's name. The batch was validated against p: no name lands on two ids.
func cloneUsersWith(p persisted, batch []User) persisted {
	published := len(p.users)
	colCopied, posCopied, namesCopied := false, false, false
	for _, u := range batch {
		if i, registered := p.userPos[u.ID]; !registered {
			if !posCopied {
				p.userPos, posCopied = maps.Clone(p.userPos), true
			}
			p.userPos[u.ID] = int32(len(p.users))
			p.users = append(p.users, u)
			p.nextUserID = max(p.nextUserID, u.ID+1)
		} else {
			if int(i) < published && !colCopied {
				p.users, colCopied = slices.Clone(p.users), true
			}
			if u.Name == "" {
				u.Name = p.users[i].Name
			}
			p.users[i] = u
		}
		if _, bound := p.userByName[u.Name]; u.Name == "" || bound {
			continue
		}
		if !namesCopied {
			p.userByName, namesCopied = maps.Clone(p.userByName), true
		}
		p.userByName[u.Name] = u.ID
		p.nameBytes += int64(len(u.Name))
	}
	return p
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

// numDomains counts the distinct domains assigned in this state. The first
// caller since domainOf last changed pays the O(tasks) scan; concurrent first
// callers compute the same value, so the racing Store is idempotent.
func (st *serverState) numDomains() int {
	if v := st.domainCount.Load(); v != 0 {
		return int(v - 1)
	}
	seen := make(map[DomainID]struct{}) //eta2:allocdiscipline-ok once per change of domainOf, not per request
	for _, d := range st.domainOf {
		seen[d] = struct{}{}
	}
	st.domainCount.Store(int64(len(seen)) + 1)
	return len(seen)
}

// pendingTasks materializes the pending task structs.
func (st *serverState) pendingTasks() []core.Task {
	out := make([]core.Task, 0, len(st.pending))
	for _, id := range st.pending {
		out = append(out, st.tasks[int(id)])
	}
	return out
}

// allocationInput is the allocation problem of the pending tasks over the
// registered users, for parallelism workers. It only reads st, and so does a
// solve of it.
func (st *serverState) allocationInput(parallelism int) allocation.Input {
	return loop.AllocationInput(st.users, st.pendingTasks(), st.store, st.domainOf, st.epsilon, parallelism)
}

// stepEstimate is a prepared close: the day's observation table, the clone of
// the store the step's expertise evidence is committed into, and the estimates.
type stepEstimate struct {
	table *core.ObservationTable
	store *truth.Store
	res   truth.UpdateResult
}

// estimateStep runs truth analysis over the open day's observations. It only
// reads st: the published state shares st.store, so the step commits into a
// clone, which applyClose swaps in once the close record is journaled.
func (st *serverState) estimateStep(cfg truth.Config) (step stepEstimate, err error) {
	if len(st.observations) == 0 {
		return step, ErrNoObservations
	}
	step.table, step.store = core.NewObservationTable(st.observations), st.store.Clone()
	if step.res, err = loop.CloseStep(st.day, step.store, step.table, st.domainOf, cfg); err != nil {
		return stepEstimate{}, fmt.Errorf("eta2: %w", err)
	}
	return step, nil
}
