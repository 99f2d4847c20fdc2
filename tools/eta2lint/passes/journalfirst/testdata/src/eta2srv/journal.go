package eta2srv

// journaled is the token: only this file builds one.
type journaled struct{ lsn uint64 }

func (s *Server) journalBuffered(ev event) (journaled, error) {
	s.w.lastLSN++ // untracked field: no token required
	return journaled{lsn: s.w.lastLSN}, nil
}

// applyEvent is the replay path, decode → prepare → apply: it mints the
// token from the record's LSN and assigns nothing itself. Compliant.
func (s *Server) applyEvent(lsn uint64, ev event) {
	n := s.prepareAddUser(ev.Name)
	s.applyAddUser(journaled{lsn: lsn}, ev.Name, n)
}
