package eta2srv

import "eta2/internal/rcu"

// journaled is the token: only this file builds one.
type journaled struct{ lsn uint64 }

func (s *Server) journalBuffered(tx *rcu.Tx[serverState], ev event) (journaled, error) {
	tx.W.lastLSN++ // untracked field: no token required
	return journaled{lsn: tx.W.lastLSN}, nil
}

// applyEvent is the replay path, decode → prepare → apply: it mints the
// token from the record's LSN and assigns nothing itself. Compliant.
func (s *Server) applyEvent(tx *rcu.Tx[serverState], lsn uint64, ev event) {
	n := s.prepareAddUser(tx, ev.Name)
	s.applyAddUser(tx, journaled{lsn: lsn}, ev.Name, n)
}
