// Package eta2srv exercises lockdiscipline against a Server shaped like
// the real one: its state and writer lock are one rcu.Cell.
package eta2srv

import (
	"net/http"
	"os"

	"eta2/internal/rcu"
	"eta2/internal/wal"
)

type serverState struct {
	journal *wal.Log
	day     int
}

type Server struct {
	st   rcu.Cell[serverState]
	file *os.File
}

// journalCommit stands in for the one nil-span-safe commit wait.
func (s *Server) journalCommit(lsn uint64, annot string) error {
	_, err := s.st.Load().journal.CommitReported(lsn)
	return err
}

// CommitAfterWrite is the approved shape: append inside the Write, wait for
// durability after it returns.
func (s *Server) CommitAfterWrite() error {
	if err := s.st.Write(func(tx *rcu.Tx[serverState]) error {
		tx.W.day++
		return nil
	}); err != nil {
		return err
	}
	if err := s.journalCommit(1, ""); err != nil {
		return err
	}
	if _, err := http.Get("http://localhost/"); err != nil {
		return err
	}
	if err := s.st.Load().journal.Commit(1); err != nil {
		return err
	}
	return s.file.Sync()
}

// CommitInsideWrite waits on the group commit with the lock held.
func (s *Server) CommitInsideWrite() error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		tx.W.day++
		return s.journalCommit(1, "role=leader") // want "journalCommit .waits on group commit. inside a Write of the state cell"
	})
}

// WALWaitsInsideWrite: every blocking WAL entry point and a file fsync.
func (s *Server) WALWaitsInsideWrite() error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		if err := tx.W.journal.Commit(2); err != nil { // want "WAL Commit .fsync wait. inside a Write"
			return err
		}
		if _, err := tx.W.journal.CommitReported(2); err != nil { // want "WAL CommitReported .fsync wait. inside a Write"
			return err
		}
		if err := tx.W.journal.Sync(); err != nil { // want "WAL Sync .fsync wait. inside a Write"
			return err
		}
		return s.file.Sync() // want "file fsync inside a Write"
	})
}

// FetchInsideWrite makes a network call with the lock held.
func (s *Server) FetchInsideWrite() error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		_, err := http.Get("http://localhost/") // want "net/http call inside a Write"
		return err
	})
}

// closeDay takes the *rcu.Tx, so it runs inside its caller's Write: the
// same calls are findings in it.
func (s *Server) closeDay(tx *rcu.Tx[serverState], interval bool) error {
	tx.W.day++
	if interval {
		if err := tx.W.journal.Sync(); err != nil { // want "WAL Sync .fsync wait. inside a Write"
			return err
		}
	}
	if _, err := http.Get("http://localhost/"); err != nil { // want "net/http call inside a Write"
		return err
	}
	if err := s.file.Sync(); err != nil { // want "file fsync inside a Write"
		return err
	}
	return s.journalCommit(3, "") // want "journalCommit .waits on group commit. inside a Write"
}

// compactIfOwed is what stays inside the Write: a size check, and a
// goroutine whose body runs after the lock is released.
func (s *Server) compactIfOwed(tx *rcu.Tx[serverState]) {
	if tx.W.journal.Stats().Bytes >= 1<<20 {
		go func() { _ = s.file.Sync() }()
	}
}

// snapshotUnderLock is a deliberate stop-the-world exception.
//
//eta2:lockdiscipline-ok the snapshot fsync must run under the lock to capture a quiesced state
func (s *Server) snapshotUnderLock(tx *rcu.Tx[serverState]) error {
	return s.file.Sync()
}

// AnnotatedCommit demonstrates the per-line escape hatch.
func (s *Server) AnnotatedCommit() error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		return tx.W.journal.Commit(4) //eta2:lockdiscipline-ok single-writer test path measures commit latency under the lock
	})
}
