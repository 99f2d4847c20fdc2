// Package state holds the server's published state: the columns the
// snapshot codec writes and replay rebuilds, behind a type whose fields no
// other package can reach (DESIGN.md §11). A reader — a query, a snapshot
// encode, a compaction, a follower bootstrap — gets values: no exported name
// returns a slice or map that shares memory with a column, and every call
// that hands a column to allocation, loop or truth runs in this package. A
// writer gets the apply methods, each of which takes the token that only
// Append (a record journaled) and Replay (a record already in the journal)
// mint, so an apply called before its record is journaled does not compile.
//
// A State is held by value in the server's rcu.Cell, and every publish is a
// shallow copy that shares every container with the writers' working copy.
// So no method writes through a container a published copy may hold; how each
// one changes:
//
//   - users, tasks, pending, observations, domainOf and truths are columns.
//     A captured slice header freezes its prefix: writers only append past
//     it, and the writers that change an entry below it — a capacity update
//     of a registered user, a described create whose clustering moves old
//     tasks, every close — write into a copy and swap the header.
//   - userPos and userByName, the id and name indexes of users, are
//     replaced, never written, by a batch that registers a new id or name.
//   - store is replace-on-write by one flat copy: a close commits into a
//     Clone and swaps the pointer, and a create clones before folding domain
//     merges.
//   - cluster is a value captured whenever the clustering changes
//     (construction, restore, a described create); nil without clustering.
//   - domains is the clustering engine itself, written in place by a
//     described create. Only the apply methods reach it, so a published
//     copy carries it without reading it.
//   - domainCount is a cell the states holding one domainOf share; whoever
//     extends or replaces domainOf installs a fresh one.
//   - lastNewDomains is a column, dropped by the close that reports it.
package state

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"eta2/internal/allocation"
	"eta2/internal/core"
	"eta2/internal/embedding"
	"eta2/internal/loop"
	"eta2/internal/truth"
	"eta2/internal/wal"
)

type (
	TaskID      = core.TaskID
	UserID      = core.UserID
	DomainID    = core.DomainID
	User        = core.User
	Observation = core.Observation
	Pair        = core.Pair
	Allocation  = core.Allocation
)

// DomainNone marks a task whose expertise domain is not yet known.
const DomainNone = core.DomainNone

// stateVersion guards against loading snapshots from incompatible builds.
const stateVersion = 1

// ErrBadState is returned when a snapshot or a journal record cannot be
// restored.
var ErrBadState = errors.New("eta2: invalid server state")

// ErrNoEmbedder is returned when a described task is created on a server
// built without an embedder.
var ErrNoEmbedder = errors.New("eta2: described tasks require WithEmbedder; set DomainHint otherwise")

// ErrNothingToAllocate is returned when allocation is requested with no
// pending tasks or no users.
var ErrNothingToAllocate = errors.New("eta2: no pending tasks or no users to allocate")

// ErrNoObservations is returned by a close when nothing was submitted.
var ErrNoObservations = errors.New("eta2: no observations submitted this time step")

// TaskSpec describes a task being created at the server.
type TaskSpec struct {
	// Description is the natural-language task description ("What is the
	// noise level around the municipal building?"). Required unless
	// DomainHint is set.
	Description string
	// ProcTime is the processing time t_j in hours a user needs to
	// complete the task. Must be positive.
	ProcTime float64
	// Cost is the recruiting cost c_j paid per user allocated to the task
	// (only used by min-cost allocation). Defaults to 1.
	Cost float64
	// DomainHint pre-assigns an expertise domain, bypassing semantic
	// clustering for this task (useful when domains are known a priori,
	// as in the paper's synthetic evaluation).
	DomainHint DomainID
}

// TruthEstimate is the server's estimate for one task after a time step.
type TruthEstimate struct {
	Task TaskID
	// Value is the estimated truth μ̂_j.
	Value float64
	// Base is the estimated base number σ̂_j (the task's value scale).
	Base float64
	// Observations is the number of data points backing the estimate.
	Observations int
}

// StepReport summarizes a closed time step.
type StepReport struct {
	// Day is the index of the closed time step.
	Day int
	// Estimates holds the truth estimates for the tasks that received
	// observations this step.
	Estimates []TruthEstimate
	// MLEIterations is the number of fixed-point iterations the truth
	// analysis needed.
	MLEIterations int
	// Converged reports whether the estimates met the convergence
	// tolerance.
	Converged bool
	// NewDomains and MergedDomains report clustering activity of the step.
	NewDomains    []DomainID
	MergedDomains int
}

// State is the server's state, in the order the snapshot codec writes it,
// then what the open day's creates did to the domains and the clustering
// engine, which the codec skips.
type State struct {
	alpha, gamma, epsilon float64

	users      []User            // in registration order
	userPos    map[UserID]int32  // id → position in users
	userByName map[string]UserID // name → id of every named user
	nameBytes  int64             // bytes of the names in userByName
	nextUserID UserID            // one past the highest id in users: NameUsers' next

	tasks []core.Task
	// domainOf and truths are per-task columns indexed by the dense TaskID
	// (DESIGN.md §11 rule 2). len(domainOf) == len(tasks) in every published
	// state; truths reaches the highest task ever estimated, and an
	// entry with Observations == 0 means "no estimate yet" (a real one
	// always has at least one).
	domainOf     []DomainID
	pending      []TaskID // created since the last close, awaiting allocation/observations
	truths       []TruthEstimate
	day          int
	observations []Observation // of the open day
	store        *truth.Store
	cluster      *loop.DomainsState

	// domainCount caches NumDomains() for domainOf: 0 means not yet
	// computed, anything else is count+1. Derived, so the codec skips it.
	domainCount *atomic.Int64

	// What the open day's creates did to the domains, for its StepReport.
	lastNewDomains []DomainID
	lastMerges     int

	// domains identifies described tasks' domains; nil without an embedder
	// (unless a snapshot brought its own clustering state).
	domains *loop.Domains
}

// empty returns a State whose containers are non-nil and empty.
//
//eta2:allocdiscipline-ok constructor: runs once per server or restore, not per request
func empty() State {
	return State{userPos: make(map[UserID]int32), userByName: make(map[string]UserID), domainCount: new(atomic.Int64)}
}

// New returns the empty state of a server with these parameters. With an
// embedder, described tasks are clustered into domains.
func New(alpha, gamma, epsilon float64, e embedding.Embedder) (State, error) {
	st := empty()
	st.store = truth.NewStore(alpha)
	return Restore(st, alpha, gamma, epsilon, e)
}

// Restore readies st — a decoded snapshot, or New's empty state — to serve
// with these parameters: the clustering engine is rebuilt from the capture,
// or started empty when there is none and e is set. RestoreDomains copies
// what its engine goes on to write, so the capture stays immutable.
func Restore(st State, alpha, gamma, epsilon float64, e embedding.Embedder) (State, error) {
	st.alpha, st.gamma, st.epsilon = alpha, gamma, epsilon
	var err error
	switch {
	case st.cluster != nil:
		if st.domains, err = loop.RestoreDomains(*st.cluster, e); err != nil {
			return State{}, fmt.Errorf("%w: %w", ErrBadState, err)
		}
	case e != nil:
		if st.domains, err = loop.NewDomains(e, gamma); err != nil {
			return State{}, fmt.Errorf("eta2: %w", err)
		}
		ds := st.domains.State()
		st.cluster = &ds
	}
	return st, nil
}

// Params returns the state's expertise decay α, clustering termination γ and
// accuracy threshold ε.
func (st *State) Params() (alpha, gamma, epsilon float64) {
	return st.alpha, st.gamma, st.epsilon
}

// Counts is the size of a state.
type Counts struct {
	Users, Tasks, Pending, Observations int
	// Names is the number of named users, NameBytes the bytes of their names.
	Names     int
	NameBytes int64
	// ExpertiseRows is the number of (user, domain) rows of the store.
	ExpertiseRows int
	// TaskRoom is how many tasks fit in the task column before an append
	// reallocates it.
	TaskRoom int
}

// Counts returns the size of the state.
func (st *State) Counts() Counts {
	return Counts{
		Users: len(st.users), Tasks: len(st.tasks), Pending: len(st.pending), Observations: len(st.observations),
		Names: len(st.userByName), NameBytes: st.nameBytes,
		ExpertiseRows: len(st.store.State().Entries),
		TaskRoom:      cap(st.tasks) - len(st.tasks),
	}
}

// ResolveUser returns the id bound to an external user name.
func (st *State) ResolveUser(name string) (UserID, bool) {
	id, ok := st.userByName[name]
	return id, ok
}

// UserName returns the name of a user, "" when it is unnamed or unknown.
func (st *State) UserName(id UserID) string {
	if i, ok := st.userPos[id]; ok {
		return st.users[i].Name
	}
	return ""
}

// Day returns the index of the open time step.
func (st *State) Day() int { return st.day }

// Domain returns the domain of a task, DomainNone for one the state does not
// hold.
func (st *State) Domain(id TaskID) DomainID {
	if int(id) < 0 || int(id) >= len(st.domainOf) {
		return DomainNone
	}
	return st.domainOf[id]
}

// Truth returns the latest estimate of a task, if it has one.
func (st *State) Truth(id TaskID) (TruthEstimate, bool) {
	if int(id) < 0 || int(id) >= len(st.truths) {
		return TruthEstimate{}, false
	}
	est := st.truths[id]
	return est, est.Observations > 0
}

// Expertise returns the learned expertise of user u in domain d.
func (st *State) Expertise(u UserID, d DomainID) float64 {
	return st.store.Expertise(u, d)
}

// NumDomains counts the distinct domains assigned in this state. The first
// caller since domainOf last changed pays the O(tasks) scan; concurrent first
// callers compute the same value, so the racing Store is idempotent.
func (st *State) NumDomains() int {
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
func (st *State) pendingTasks() []core.Task {
	out := make([]core.Task, 0, len(st.pending))
	for _, id := range st.pending {
		out = append(out, st.tasks[int(id)])
	}
	return out
}

// allocationInput is the allocation problem of the pending tasks over the
// registered users, for parallelism workers. It only reads st, and so does a
// solve of it.
func (st *State) allocationInput(parallelism int) allocation.Input {
	return loop.AllocationInput(st.users, st.pendingTasks(), st.store, st.domainOf, st.epsilon, parallelism)
}

// AllocateMaxQuality solves the max-quality allocation problem of the
// pending tasks (Sec. 5.1 of the paper). It only reads st.
func (st *State) AllocateMaxQuality(parallelism int) (*Allocation, error) {
	if len(st.pending) == 0 || len(st.users) == 0 {
		return nil, ErrNothingToAllocate
	}
	res, err := allocation.MaxQuality(st.allocationInput(parallelism), allocation.MaxQualityOptions{})
	if err != nil {
		return nil, fmt.Errorf("eta2: %w", err)
	}
	return res.Allocation, nil
}

// MinCost runs the min-cost rounds (Sec. 5.2) of the pending tasks on st,
// which it only reads: each round's pairs go to collect, and the
// re-estimates run on a clone of the store.
func (st *State) MinCost(cfg allocation.MinCostConfig, parallelism int, collect func([]Pair) ([]Observation, error)) (allocation.MinCostResult, error) {
	if len(st.pending) == 0 || len(st.users) == 0 {
		return allocation.MinCostResult{}, ErrNothingToAllocate
	}
	if collect == nil {
		return allocation.MinCostResult{}, errors.New("eta2: nil collector")
	}
	res, err := loop.MinCost(st.allocationInput(parallelism), cfg, st.store, st.domainOf, truth.Config{Parallelism: parallelism}, collect)
	if err != nil {
		return allocation.MinCostResult{}, fmt.Errorf("eta2: %w", err)
	}
	return res, nil
}

// step is a prepared close: the day's observation table, the clone of the
// store the step's expertise evidence is committed into, and the estimates.
type step struct {
	table *core.ObservationTable
	store *truth.Store
	res   truth.UpdateResult
}

// EstimateStep runs truth analysis over the open day's observations on
// parallelism workers. It only reads st: the published state shares the
// store, so the step commits into a clone, which ApplyClose swaps in once
// the close record is journaled.
func (st *State) EstimateStep(parallelism int) (s step, err error) {
	if len(st.observations) == 0 {
		return s, ErrNoObservations
	}
	s.table, s.store = core.NewObservationTable(st.observations), st.store.Clone()
	if s.res, err = loop.CloseStep(st.day, s.store, s.table, st.domainOf, truth.Config{Parallelism: parallelism}); err != nil {
		return step{}, fmt.Errorf("eta2: %w", err)
	}
	return s, nil
}

// journaled proves a mutation's record is in the journal under lsn (0 on an
// in-memory node). Only Append and Replay mint it and every apply method
// takes one, so no apply runs before its record is journaled.
type journaled struct{ lsn uint64 }

// LSN is the record's sequence number, 0 on an in-memory node.
func (j journaled) LSN() uint64 { return j.lsn }

// Append journals one encoded record (EncodeEvent) to log without waiting
// for durability and returns the token its apply takes. It is the one way a
// record a node writes enters its journal; a nil log, an in-memory node's,
// writes nothing.
func Append(log *wal.Log, payload []byte) (journaled, error) {
	if log == nil {
		return journaled{}, nil
	}
	lsn, err := log.AppendBuffered(payload)
	return journaled{lsn: lsn}, err
}

// cloneUsersWith returns st with batch applied to the user column in order: a
// new id is appended — in place, past every published header — and indexed in
// a copy of the id index; a registered user's entry changes in a copy of the
// column; a name not yet bound is indexed in a copy of the name index. Each
// copy is made at most once per batch, and a batch that needs none hands back
// the containers it was given. A capacity update without a name keeps the
// user's name. The batch was validated against st: no name lands on two ids.
func cloneUsersWith(st State, batch []User) State {
	published := len(st.users)
	colCopied, posCopied, namesCopied := false, false, false
	for _, u := range batch {
		if i, registered := st.userPos[u.ID]; !registered {
			if !posCopied {
				st.userPos, posCopied = maps.Clone(st.userPos), true
			}
			st.userPos[u.ID] = int32(len(st.users))
			st.users = append(st.users, u)
			st.nextUserID = max(st.nextUserID, u.ID+1)
		} else {
			if int(i) < published && !colCopied {
				st.users, colCopied = slices.Clone(st.users), true
			}
			if u.Name == "" {
				u.Name = st.users[i].Name
			}
			st.users[i] = u
		}
		if _, bound := st.userByName[u.Name]; u.Name == "" || bound {
			continue
		}
		if !namesCopied {
			st.userByName, namesCopied = maps.Clone(st.userByName), true
		}
		st.userByName[u.Name] = u.ID
		st.nameBytes += int64(len(u.Name))
	}
	return st
}
