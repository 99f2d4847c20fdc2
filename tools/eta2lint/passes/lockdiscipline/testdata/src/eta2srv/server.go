// Package eta2srv exercises lockdiscipline against a Server shaped like
// the real one.
package eta2srv

import (
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"eta2/internal/wal"
)

type Server struct {
	mu      sync.Mutex
	journal *wal.Log
	file    *os.File

	users map[string]int
	day   int

	// w is the working state: a struct value, so its fields are the Server's.
	w     serverState
	state atomic.Pointer[serverState]
}

// journalCommit stands in for the one nil-span-safe commit wait.
func (s *Server) journalCommit(lsn uint64, annot string) error {
	_, err := s.journal.CommitReported(lsn)
	return err
}

// AddUser takes the write lock before writing: compliant.
func (s *Server) AddUser(name string) {
	s.mu.Lock()
	s.users[name] = 1
	s.day++
	s.mu.Unlock()
}

// BadAddUser writes master state without the writer lock.
func (s *Server) BadAddUser(name string) {
	s.users[name] = 1 // want "writes Server field users without s.mu.Lock"
}

// BadCloseDay writes the working state without the writer lock: a store to
// a field of s.w is a store to the Server. A loaded state is a pointer to
// somewhere else (and snapshotimmutability's to refuse).
func (s *Server) BadCloseDay() {
	s.state.Load().day++
	s.w.day++ // want "writes Server field w without s.mu.Lock"
}

// CommitUnderLock waits on the WAL group commit while holding the lock.
func (s *Server) CommitUnderLock() error {
	s.mu.Lock()
	s.day++
	err := s.journal.Commit(1) // want "WAL Commit .fsync wait. while s.mu is held"
	s.mu.Unlock()
	return err
}

// CommitAfterUnlock is the approved shape: buffer under the lock, wait
// for durability outside it.
func (s *Server) CommitAfterUnlock() error {
	s.mu.Lock()
	s.day++
	s.mu.Unlock()
	return s.journal.Commit(1)
}

// SpannedCommitUnderLock: a traced caller hands the same wait its open
// fsync span — still a group-commit wait.
func (s *Server) SpannedCommitUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalCommit(1, "role=leader") // want "journalCommit .waits on group commit. while s.mu is held"
}

// ReportedCommitUnderLock: the leader-reporting WAL entry point blocks
// exactly like Commit.
func (s *Server) ReportedCommitUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.journal.CommitReported(2) // want "WAL CommitReported .fsync wait. while s.mu is held"
	return err
}

// syncLocked runs with the lock held by convention (name suffix).
func (s *Server) syncLocked() error {
	if err := s.journal.Sync(); err != nil { // want "WAL Sync .fsync wait. while s.mu is held"
		return err
	}
	return s.file.Sync() // want "file fsync while s.mu is held"
}

// closeStepDurabilityLocked is the shape CloseTimeStep once hid from this
// rule by lacking the suffix: the interval policy's forced flush, run by
// a helper its caller invokes with the write lock held.
func (s *Server) closeStepDurabilityLocked(interval bool) error {
	if interval {
		return s.journal.Sync() // want "WAL Sync .fsync wait. while s.mu is held"
	}
	return nil
}

// compactIfOwedLocked is what stays under the lock: a size check. The
// flush moved behind the caller's Unlock (CommitAfterUnlock's shape).
func (s *Server) compactIfOwedLocked() bool {
	return s.journal.Stats().Bytes >= 1<<20
}

// snapshotLocked is a deliberate stop-the-world exception.
//
//eta2:lockdiscipline-ok the snapshot fsync must run under the lock to capture a quiesced state
func (s *Server) snapshotLocked() error {
	return s.file.Sync()
}

// FetchUnderLock makes a network call with the lock held.
func (s *Server) FetchUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	http.Get("http://localhost/") // want "net/http call while s.mu is held"
}

// BranchRelease only unlocks on the early-return path; the fall-through
// is still locked when the commit happens.
func (s *Server) BranchRelease(fast bool) error {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		return nil
	}
	s.day++
	err := s.journal.Commit(2) // want "WAL Commit .fsync wait. while s.mu is held"
	s.mu.Unlock()
	return err
}

// DeferredUnlock releases at return: the body runs locked.
func (s *Server) DeferredUnlock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.day++
	return s.journal.Commit(3) // want "WAL Commit .fsync wait. while s.mu is held"
}

// AnnotatedCommit demonstrates the per-line escape hatch.
func (s *Server) AnnotatedCommit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Commit(4) //eta2:lockdiscipline-ok single-writer test path measures commit latency under the lock
}

// Unlocked durability work is always fine.
func (s *Server) Flush() error {
	if err := s.journal.Sync(); err != nil {
		return err
	}
	return s.file.Sync()
}

// serverState is the immutable read snapshot (PR 6 shape).
type serverState struct {
	users map[string]int
	day   int
}

// publishLocked is the single allowed publication point for s.state.
func (s *Server) publishLocked() {
	st := s.w
	s.state.Store(&st)
}

// Day serves from the published snapshot without locks: compliant.
func (s *Server) Day() int {
	return s.state.Load().day
}

// NumUsers is on the query surface but still goes through the lock.
func (s *Server) NumUsers() int {
	s.mu.Lock()         // want "query-surface method NumUsers touches s.mu"
	defer s.mu.Unlock() // want "query-surface method NumUsers touches s.mu"
	return len(s.users)
}

// DurabilityStats even touching the write lock on the read path is wrong.
func (s *Server) DurabilityStats() int {
	s.mu.Lock()         // want "query-surface method DurabilityStats touches s.mu"
	defer s.mu.Unlock() // want "query-surface method DurabilityStats touches s.mu"
	return s.day
}

// SaveStateBinary joined the query surface when the published state became
// the whole persistable state: a capture that reads master state under the
// lock waits on every writer, and a writer parked in its critical section
// stalls the snapshot file behind it.
func (s *Server) SaveStateBinary() int {
	s.mu.Lock()         // want "query-surface method SaveStateBinary touches s.mu"
	defer s.mu.Unlock() // want "query-surface method SaveStateBinary touches s.mu"
	return len(s.users)
}

// CaptureReplicationSnapshot is the compliant capture: a load of the
// published state, labelled by the state itself.
func (s *Server) CaptureReplicationSnapshot() (int, func() int) {
	st := s.state.Load()
	return st.day, func() int { return len(st.users) }
}

// Compact is NOT on the query surface: it encodes the published state like
// the captures do, then takes the lock to record its bookkeeping.
func (s *Server) Compact() int {
	st := s.state.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.day = st.day
	return len(st.users)
}

// ReplicationStatus joined the query surface in the replication PR: the
// follower admin endpoint polls it continuously, so it must serve from
// the published snapshot like every other read.
func (s *Server) ReplicationStatus() int {
	s.mu.Lock()         // want "query-surface method ReplicationStatus touches s.mu"
	defer s.mu.Unlock() // want "query-surface method ReplicationStatus touches s.mu"
	return s.day
}

// CommittedLSN feeds the replication long-poll; same lock-free rule.
func (s *Server) CommittedLSN() int {
	s.mu.Lock()         // want "query-surface method CommittedLSN touches s.mu"
	defer s.mu.Unlock() // want "query-surface method CommittedLSN touches s.mu"
	return s.day
}

// ApplyShipped mirrors the follower apply loop's compliant shape: mutate
// and publish under the write lock, commit the local log after release.
func (s *Server) ApplyShipped(name string) error {
	s.mu.Lock()
	s.users[name] = 1
	s.publishLocked()
	s.mu.Unlock()
	return s.journal.Commit(5)
}

// BadApplyShipped commits the shipped batch while still holding the
// lock — the follower read surface would stall behind the fsync.
func (s *Server) BadApplyShipped(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[name] = 1
	s.publishLocked()
	return s.journal.Commit(6) // want "WAL Commit .fsync wait. while s.mu is held"
}

// BadBootstrapAdopt republishes adopted snapshot state directly instead
// of going through publishLocked.
func (s *Server) BadBootstrapAdopt(users map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users = users
	s.state.Store(&serverState{users: users}) // want "state snapshot published outside publishLocked"
}

// RoguePublish stores the snapshot pointer outside publishLocked.
func (s *Server) RoguePublish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state.Store(&serverState{}) // want "state snapshot published outside publishLocked"
}

// restoreHelper is a plain function; rule 4 still applies to it.
func restoreHelper(s *Server) {
	s.state.Store(&serverState{}) // want "state snapshot published outside publishLocked"
}

// CompareAndSwapPublish: every atomic publication primitive is covered.
func (s *Server) CompareAndSwapPublish(old *serverState) {
	s.state.CompareAndSwap(old, &serverState{}) // want "state snapshot published outside publishLocked"
}
