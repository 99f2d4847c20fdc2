// Package eta2srv exercises journalfirst against a Server shaped like
// the real one: its state is one rcu.Cell of the one state declaration, whose
// embedded persistable part is the tracked set, plus durability bookkeeping.
package eta2srv

import "eta2/internal/rcu"

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
	nextID  int    // derived, not state: no token required
}

type persisted struct {
	users   []string
	userPos map[string]int // derived from users, replaced with it
	day     int
	cluster []string // the identifier's state as of its last change
}

type Server struct {
	st      rcu.Cell[serverState]
	domains *identifier
}

// indexWith returns a copy of pos with name added.
func indexWith(pos map[string]int, name string, at int) map[string]int {
	next := map[string]int{name: at}
	for k, v := range pos {
		next[k] = v
	}
	return next
}

// AddUser is a gate: prepare, journal, apply, in one Write. Compliant.
func (s *Server) AddUser(name string) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		n := s.prepareAddUser(tx, name)
		j, err := s.journalBuffered(tx, event{Name: name})
		if err != nil {
			return err
		}
		s.applyAddUser(tx, j, name, n)
		return nil
	})
}

// prepareAddUser only reads.
func (s *Server) prepareAddUser(tx *rcu.Tx[serverState], name string) int {
	_ = s.domains.Vectorize(name)
	return len(tx.W.users)
}

// applyAddUser takes the token, so it may assign every tracked field and
// call Identify, itself or in a literal it holds. Compliant.
func (s *Server) applyAddUser(tx *rcu.Tx[serverState], _ journaled, name string, at int) {
	tx.W.userPos = indexWith(tx.W.userPos, name, at)
	tx.W.users = append(tx.W.users, name)
	func() { tx.W.day++ }()
	s.domains.Identify(name)
	tx.W.cluster = s.domains.State()
	tx.W.nextID++
}

// BadIndexUser indexes the user in a callback that holds no token: moving
// an apply's assignment up into its gate, above the journal call, lands here.
func (s *Server) BadIndexUser(name string) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		tx.W.userPos = indexWith(tx.W.userPos, name, len(tx.W.users)) // want `state field userPos assigned through a \*rcu.Tx in BadIndexUser, which takes no journaled token`
		_, err := s.journalBuffered(tx, event{Name: name})
		return err
	})
}

// badElementWrite stores into a tracked container without a token (the
// store itself is snapshotimmutability's finding too).
func (s *Server) badElementWrite(tx *rcu.Tx[serverState], name string) {
	tx.W.userPos[name] = 0 // want `state field userPos assigned through a \*rcu.Tx in badElementWrite`
}

// NumUsers is a query that writes.
func (s *Server) NumUsers() int {
	_ = s.st.Write(func(tx *rcu.Tx[serverState]) error {
		tx.W.day++ // want `state field day assigned through a \*rcu.Tx in NumUsers`
		return nil
	})
	return len(s.st.Load().users)
}

// closeDay is a plain function: holding a *rcu.Tx is what it takes, not
// being a Server method.
func closeDay(tx *rcu.Tx[serverState]) {
	tx.W.day++ // want `state field day assigned through a \*rcu.Tx in closeDay`
}

// BadCreateTask clusters the task without a token.
func (s *Server) BadCreateTask(name string) {
	s.domains.Identify(name) // want `Identify called on a Server field in BadCreateTask`
}

// ForgedToken builds the token outside journal.go to reach an apply.
func (s *Server) ForgedToken(name string) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		s.applyAddUser(tx, journaled{}, name, len(tx.W.users)) // want `journaled\{\.\.\.\} built outside journal.go`
		return nil
	})
}

// Bookkeeping only touches untracked fields, and a state value no Write
// has published yet is not reached through a *rcu.Tx: no token needed.
func (s *Server) Bookkeeping() error {
	w := serverState{}
	w.day = 1
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		tx.W.lastLSN = 0
		tx.W.nextID = 0
		tx.W = w
		return nil
	})
}
