// Package eta2srv exercises journalfirst against a Server shaped like
// the real one: a working value of the one state declaration, whose embedded
// persistable part is the tracked set, plus durability bookkeeping.
package eta2srv

import (
	"sync"
	"sync/atomic"
)

type event struct {
	Name string
	Day  int
}

// identifier stands in for the domain identifier: a stateful object the
// Server holds, changed through a method rather than by assignment.
type identifier struct{ items []string }

func (d *identifier) Vectorize(name string) int { return len(name) }
func (d *identifier) Identify(name string)      { d.items = append(d.items, name) }
func (d *identifier) State() []string           { return d.items }

// serverState is the one declaration of the state. What it embeds is what
// replay rebuilds — the tracked set, with no table of names anywhere — and
// what it declares directly is the node's bookkeeping.
type serverState struct {
	persisted
	lastLSN uint64 // durability bookkeeping: not event-sourced
}

type persisted struct {
	users   []string
	userPos map[string]int // derived from users, replaced with it
	day     int
	cluster []string // the identifier's state as of its last change
}

type Server struct {
	mu      sync.Mutex
	w       serverState
	state   atomic.Pointer[serverState]
	domains *identifier
	nextID  int // derived, not state: no journal required
}

func (s *Server) journalBuffered(ev event) (uint64, error) {
	s.w.lastLSN++ // untracked field: no journal required
	return s.w.lastLSN, nil
}

func (s *Server) journalBufferedPayload(p []byte) (uint64, error) {
	s.w.lastLSN++
	return s.w.lastLSN, nil
}

// indexWith returns a copy of pos with name added.
func indexWith(pos map[string]int, name string, at int) map[string]int {
	next := map[string]int{name: at}
	for k, v := range pos {
		next[k] = v
	}
	return next
}

// AddUser journals before applying: compliant.
func (s *Server) AddUser(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journalBuffered(event{Name: name}); err != nil {
		return err
	}
	s.w.userPos = indexWith(s.w.userPos, name, len(s.w.users))
	s.w.users = append(s.w.users, name)
	s.w.day++
	s.nextID++
	return nil
}

// BadAddUser applies the mutation before buffering the record: a crash
// between the two loses the user on replay.
func (s *Server) BadAddUser(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.users = append(s.w.users, name) // want "Server.users assigned before the event is journaled"
	_, err := s.journalBuffered(event{Name: name})
	return err
}

// BadIndexUser indexes the user before buffering the record. The index is
// a persistable field like any other: the hand-kept table this pass once
// had did not list it, and this passed.
func (s *Server) BadIndexUser(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.userPos = indexWith(s.w.userPos, name, len(s.w.users)) // want "Server.userPos assigned before the event is journaled"
	if _, err := s.journalBuffered(event{Name: name}); err != nil {
		return err
	}
	s.w.users = append(s.w.users, name)
	return nil
}

// BadElementWrite stores into a tracked container before the record (the
// store itself is snapshotimmutability's finding; the order is this one's).
func (s *Server) BadElementWrite(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.userPos[name] = 0 // want "Server.userPos assigned before the event is journaled"
	_, err := s.journalBuffered(event{Name: name})
	return err
}

// NeverJournals mutates tracked state without any journal call.
func (s *Server) NeverJournals() {
	s.mu.Lock()
	s.w.day++ // want "Server.day assigned without journaling the event"
	s.mu.Unlock()
}

// Bookkeeping only touches untracked fields: no journal needed.
func (s *Server) Bookkeeping() {
	s.mu.Lock()
	s.w.lastLSN = 0
	s.nextID = 0
	s.mu.Unlock()
}

// applyEvent is the replay path: events are already journaled.
//
//eta2:journalfirst-ok replay applies events that are already in the journal
func (s *Server) applyEvent(ev event) {
	s.w.users = append(s.w.users, ev.Name)
	s.w.day = ev.Day
}

// PayloadPath journals the pre-encoded payload first: compliant.
func (s *Server) PayloadPath(p []byte, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journalBufferedPayload(p); err != nil {
		return err
	}
	s.w.users = append(s.w.users, name)
	return nil
}

// CreateTask reads the identifier before journaling (validation), mutates
// it after and captures its state for publication: compliant.
func (s *Server) CreateTask(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.domains.Vectorize(name)
	if _, err := s.journalBuffered(event{Name: name}); err != nil {
		return err
	}
	s.domains.Identify(name)
	s.w.cluster = s.domains.State()
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

// BadCaptureCluster publishes the clustering capture ahead of the record.
func (s *Server) BadCaptureCluster(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.cluster = s.domains.State() // want "Server.cluster assigned before the event is journaled"
	_, err := s.journalBuffered(event{Name: name})
	return err
}
