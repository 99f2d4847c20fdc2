// Package eta2srv exercises journalfirst against a Server shaped like
// the real one: a working value of the one state declaration, whose embedded
// persistable part is the tracked set, plus durability bookkeeping.
package eta2srv

import (
	"sync"
	"sync/atomic"
)

type event struct{ Name string }

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
	nextID  int // derived, not state: no token required
}

// indexWith returns a copy of pos with name added.
func indexWith(pos map[string]int, name string, at int) map[string]int {
	next := map[string]int{name: at}
	for k, v := range pos {
		next[k] = v
	}
	return next
}

// AddUser is a gate: prepare, journal, apply. Compliant.
func (s *Server) AddUser(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.prepareAddUser(name)
	j, err := s.journalBuffered(event{Name: name})
	if err != nil {
		return err
	}
	s.applyAddUser(j, name, n)
	return nil
}

// prepareAddUser only reads.
func (s *Server) prepareAddUser(name string) int {
	_ = s.domains.Vectorize(name)
	return len(s.w.users)
}

// applyAddUser takes the token, so it may assign every tracked field and
// call Identify. Compliant.
func (s *Server) applyAddUser(_ journaled, name string, at int) {
	s.w.userPos = indexWith(s.w.userPos, name, at)
	s.w.users = append(s.w.users, name)
	s.w.day++
	s.domains.Identify(name)
	s.w.cluster = s.domains.State()
	s.nextID++
}

// BadIndexUser indexes the user in a method that holds no token: moving an
// apply's assignment up into its gate, above the journal call, lands here.
func (s *Server) BadIndexUser(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.userPos = indexWith(s.w.userPos, name, len(s.w.users)) // want `Server.userPos assigned in BadIndexUser, which takes no journaled token`
	_, err := s.journalBuffered(event{Name: name})
	return err
}

// BadElementWrite stores into a tracked container without a token (the
// store itself is snapshotimmutability's finding too).
func (s *Server) BadElementWrite(name string) {
	s.w.userPos[name] = 0 // want `Server.userPos assigned in BadElementWrite`
}

// NumUsers is a query that writes.
func (s *Server) NumUsers() int {
	s.w.day++ // want `Server.day assigned in NumUsers`
	return len(s.w.users)
}

// BadCreateTask clusters the task without a token.
func (s *Server) BadCreateTask(name string) {
	s.domains.Identify(name) // want `Identify called on a Server field in BadCreateTask`
}

// ForgedToken builds the token outside journal.go to reach an apply.
func (s *Server) ForgedToken(name string) {
	s.applyAddUser(journaled{}, name, len(s.w.users)) // want `journaled\{\.\.\.\} built outside journal.go`
}

// Bookkeeping only touches untracked fields: no token needed.
func (s *Server) Bookkeeping() {
	s.mu.Lock()
	s.w.lastLSN = 0
	s.nextID = 0
	s.mu.Unlock()
}
