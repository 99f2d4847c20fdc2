// Package eta2srv exercises journalfirst against a Server shaped like
// the real one: tracked event-sourced fields plus durability bookkeeping.
package eta2srv

import "sync"

type event struct {
	Name string
	Day  int
}

// identifier stands in for the domain identifier: a stateful object behind
// one tracked field, changed through a method rather than by assignment.
type identifier struct{ items []string }

func (d *identifier) Vectorize(name string) int { return len(name) }
func (d *identifier) Identify(name string)      { d.items = append(d.items, name) }

type Server struct {
	mu      sync.Mutex
	users   map[string]int
	day     int
	domains *identifier
	lastLSN uint64 // durability bookkeeping: not event-sourced
}

func (s *Server) journalBuffered(ev event) (uint64, error) {
	s.lastLSN++ // untracked field: no journal required
	return s.lastLSN, nil
}

func (s *Server) journalBufferedPayload(p []byte) (uint64, error) {
	s.lastLSN++
	return s.lastLSN, nil
}

// AddUser journals before applying: compliant.
func (s *Server) AddUser(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journalBuffered(event{Name: name}); err != nil {
		return err
	}
	s.users[name] = 1
	s.day++
	return nil
}

// BadAddUser applies the mutation before buffering the record: a crash
// between the two loses the user on replay.
func (s *Server) BadAddUser(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[name] = 1 // want "Server.users assigned before the event is journaled"
	_, err := s.journalBuffered(event{Name: name})
	return err
}

// NeverJournals mutates tracked state without any journal call.
func (s *Server) NeverJournals() {
	s.mu.Lock()
	s.day++ // want "Server.day assigned without journaling the event"
	s.mu.Unlock()
}

// Bookkeeping only touches untracked fields: no journal needed.
func (s *Server) Bookkeeping() {
	s.mu.Lock()
	s.lastLSN = 0
	s.mu.Unlock()
}

// applyEvent is the replay path: events are already journaled.
//
//eta2:journalfirst-ok replay applies events that are already in the journal
func (s *Server) applyEvent(ev event) {
	s.users[ev.Name] = 1
	s.day = ev.Day
}

// PayloadPath journals the pre-encoded payload first: compliant.
func (s *Server) PayloadPath(p []byte, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journalBufferedPayload(p); err != nil {
		return err
	}
	s.users[name] = 1
	return nil
}

// CreateTask reads the identifier before journaling (validation) and
// mutates it after: compliant.
func (s *Server) CreateTask(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.domains.Vectorize(name)
	if _, err := s.journalBuffered(event{Name: name}); err != nil {
		return err
	}
	s.domains.Identify(name)
	return nil
}

// BadCreateTask clusters the task before the record is buffered: a failed
// journal write leaves an item the log never heard of.
func (s *Server) BadCreateTask(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.domains.Identify(name) // want "Server.domains mutated by Identify before the event is journaled"
	_, err := s.journalBuffered(event{Name: name})
	return err
}
