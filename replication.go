package eta2

import (
	"fmt"
	"io"
	"time"

	"eta2/internal/wal"
)

// serverRole is a node's position in a replication topology.
type serverRole int

const (
	// rolePrimary (the zero value) accepts writes and ships its log.
	rolePrimary serverRole = iota
	// roleFollower rejects public mutations and applies the primary's
	// shipped records instead. The only transition is follower → primary
	// (promotion); a primary never becomes a follower in-process.
	roleFollower
)

func (r serverRole) String() string {
	if r == roleFollower {
		return "follower"
	}
	return "primary"
}

// FollowerWriteError rejects a mutation attempted on a replication
// follower. Primary carries the primary's base URL so clients (and the
// HTTP layer's 503 response) can redirect the write.
type FollowerWriteError struct {
	Primary string
}

func (e *FollowerWriteError) Error() string {
	if e.Primary == "" {
		return "eta2: node is a replication follower; writes are rejected"
	}
	return fmt.Sprintf("eta2: node is a replication follower; write to the primary at %s", e.Primary)
}

// writable is the lock-free write gate, checked at the top of every public
// mutation. It refuses once Close has begun, and on a follower. It reads the
// published snapshot: role only ever transitions follower → primary, so a
// mutation that passed the gate can never race its way onto a node that is
// still a follower.
func (s *Server) writable() error {
	if s.closing.Load() {
		return ErrClosed
	}
	st := s.st.Load()
	if st.role == roleFollower {
		return &FollowerWriteError{Primary: st.primaryAddr}
	}
	return nil
}

// shipJournal is the one gate in front of the replication source surface:
// only a durable primary ships its log. Followers keep answering
// ErrNotDurable (503 over HTTP) until promoted — chained replication is
// off. Lock-free: role and journal come from the published snapshot.
func (s *Server) shipJournal() (*wal.Log, error) {
	st := s.st.Load()
	if st.journal == nil || st.role != rolePrimary {
		return nil, ErrNotDurable
	}
	return st.journal, nil
}

// CommittedLSN returns the server's WAL acknowledgement frontier — the
// newest LSN replication may ship. ErrNotDurable unless shipJournal allows.
func (s *Server) CommittedLSN() (uint64, error) {
	j, err := s.shipJournal()
	if err != nil {
		return 0, err
	}
	return j.CommittedLSN(), nil
}

// WaitCommitted blocks until the committed frontier exceeds after or the
// timeout elapses, returning the frontier either way — the long-poll
// primitive behind GET /v1/repl/log.
func (s *Server) WaitCommitted(after uint64, timeout time.Duration) (uint64, error) {
	j, err := s.shipJournal()
	if err != nil {
		return 0, err
	}
	return j.WaitCommitted(after, timeout), nil
}

// TakeShippedTraces drains up to max completed write traces whose LSN is
// at or below upTo, serialized for the X-Eta2-Trace response header.
// Implements repl.TraceSource.
func (s *Server) TakeShippedTraces(upTo uint64, max int) [][]byte {
	return s.tracer.TakeShippedTraces(upTo, max)
}

// ReadCommitted streams committed journal records with LSN >= from to fn,
// at most max of them; see (*wal.Log).ReadCommitted for the contract
// (including wal.ErrCompacted for cursors behind the latest compaction).
func (s *Server) ReadCommitted(from uint64, max int, fn func(lsn uint64, payload []byte) error) (int, error) {
	j, err := s.shipJournal()
	if err != nil {
		return 0, err
	}
	return j.ReadCommitted(from, max, fn)
}

// CaptureReplicationSnapshot captures a consistent snapshot of the
// current state for follower bootstrap, returning the LSN it covers and
// a writer that encodes it with the binary codec. The capture is a load of
// the published state, which carries its own LSN; like the encoding, which
// runs when write is called, it takes no server lock.
func (s *Server) CaptureReplicationSnapshot() (uint64, func(io.Writer) error, error) {
	if _, err := s.shipJournal(); err != nil {
		return 0, nil, err
	}
	st := s.st.Load()
	return st.lastLSN, st.Encode, nil
}

// ReplicationStatus reports this server's replication position. For a
// follower the Follower wrapper overlays the pull-loop view (primary
// frontier, lag, connection state); the server itself knows its role and
// LSN frontiers (a follower's applied LSN advances per record). Lock-free:
// everything comes from the published snapshot.
func (s *Server) ReplicationStatus() ReplicationStatus {
	st := s.st.Load()
	rs := ReplicationStatus{
		Role:       st.role.String(),
		Primary:    st.primaryAddr,
		AppliedLSN: st.lastLSN,
	}
	if st.journal != nil {
		rs.CommittedLSN = st.journal.CommittedLSN()
		if st.role == rolePrimary {
			rs.PrimaryFrontier = rs.CommittedLSN
			rs.Connected = true
		}
	}
	return rs
}
