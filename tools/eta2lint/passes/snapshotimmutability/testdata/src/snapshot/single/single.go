// Package single exercises snapshotimmutability inside one package: the
// snapshot contract is read off the declarations — the type argument of the
// rcu.Cell the Server holds — writes through a container of the working copy
// or of a loaded state are flagged, and the copy-on-write idiom passes.
package single

import (
	"slices"

	"eta2/internal/rcu"
)

type user struct {
	name  string
	score int
}

// serverState is the one declaration of the state: the owner's cell holds
// the writers' working copy of it and publishes copies.
type serverState struct {
	persisted
	log *wlog //eta2:snapshotimmutability-ok synchronized handle, published so readers can reach it, not frozen data
}

// persisted is embedded, as in the real server: its fields are the state's.
type persisted struct {
	users  map[string]*user
	truths map[string]float64
	// domainOf is a published column: append-only below a captured header.
	domainOf []int
	day      int
}

// wlog stands in for an internally synchronized handle (the WAL).
type wlog struct{ n int }

func (l *wlog) Append() { l.n++ }

type Server struct {
	// st is the state cell: every container of its working copy is shared
	// with the published copies. Its type argument names the snapshot type.
	st rcu.Cell[serverState]
	// scratch is NOT state: writes to it stay legal.
	scratch map[string]int
}

// badCopyWrite writes through a container of a copied state: the copy
// shares it with the working copy and every published state.
func (s *Server) badCopyWrite(tx *rcu.Tx[serverState], id string) {
	st := tx.W
	st.day = 3         // the copy's own scalar: fine
	st.users[id] = nil // want `write to st\.users\[id\] mutates`
	st.users = nil     // the copy's own header: fine
	s.st.Load().day++  // want `write to s\.st\.Load\(\)\.day mutates`
}

// goodHandle mutates through the published handle, off the working copy and
// off a loaded snapshot: the annotation on the field's declaration covers
// every use. The snapshot's own field is still frozen.
func (s *Server) goodHandle(tx *rcu.Tx[serverState]) {
	tx.W.log.Append()
	st := s.st.Load()
	st.log.Append()
	l := st.log
	l.Append()
	st.log = nil // want `write to st\.log mutates`
}

// badDirectWrites stores straight into published containers, inside a
// Write and in a function that takes the *rcu.Tx.
func (s *Server) badDirectWrites(id string, u *user) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		tx.W.users[id] = u             // want `write to tx\.W\.users\[id\] mutates memory reachable from the published snapshot`
		tx.W.truths[id] = 0.5          // want `write to tx\.W\.truths\[id\] mutates`
		delete(tx.W.users, id)         // want `delete mutates tx\.W\.users`
		tx.W.users[id].score++         // want `write to tx\.W\.users\[id\]\.score mutates`
		for _, u := range tx.W.users { // element pointers alias published memory
			u.score = 0 // want `write to u\.score mutates`
		}
		return nil
	})
}

// badAlias writes through a local alias of a published container.
func (s *Server) badAlias(tx *rcu.Tx[serverState], id string) {
	m := tx.W.users
	m[id] = nil // want `write to m\[id\] mutates`
}

// badSnapshotWrite mutates a snapshot loaded from the cell.
func (s *Server) badSnapshotWrite(id string) {
	st := s.st.Load()
	st.day = 9         // want `write to st\.day mutates`
	st.users[id] = nil // want `write to st\.users\[id\] mutates`
}

// goodCOW is the sanctioned idiom: build fresh, then swap wholesale.
func (s *Server) goodCOW(id string, u *user) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		next := make(map[string]*user, len(tx.W.users)+1)
		for k, v := range tx.W.users {
			next[k] = v
		}
		next[id] = u
		tx.W.users = next // wholesale replacement, not a write into shared memory
		return nil
	})
}

// badColumnWrites stores into a published column: through the working
// copy, a loaded snapshot, an alias, and a callee that writes its parameter.
func (s *Server) badColumnWrites(tx *rcu.Tx[serverState], i, d int) {
	tx.W.domainOf[i] = d // want `write to tx\.W\.domainOf\[i\] mutates`
	st := s.st.Load()
	st.domainOf[i] = d // want `write to st\.domainOf\[i\] mutates`
	col := tx.W.domainOf
	col[i] = d               // want `write to col\[i\] mutates`
	copy(tx.W.domainOf, col) // want `copy mutates tx\.W\.domainOf`
	assign(tx.W.domainOf, i) // want `passes snapshot-reachable tx\.W\.domainOf to snapshot/single\.assign`
	assign(st.domainOf, i)   // want `passes snapshot-reachable st\.domainOf to snapshot/single\.assign`
}

// assign writes through its slice parameter.
func assign(col []int, i int) { col[i] = 1 }

// goodColumnWrites are the two legal shapes: append past every captured
// header and swap the field, or change an entry in a copy and swap that.
func (s *Server) goodColumnWrites(tx *rcu.Tx[serverState], i, d int) {
	tx.W.domainOf = append(tx.W.domainOf, d)
	next := slices.Clone(tx.W.domainOf)
	next[i] = d
	assign(next, i)
	tx.W.domainOf = next
	grown := make([]int, len(tx.W.domainOf)+1)
	copy(grown, tx.W.domainOf)
	grown[i] = d
	tx.W.domainOf = grown
}

// goodScratch writes to a field that is not state, and assigns a scalar of
// the working copy: the next copy's, not a published one's.
func (s *Server) goodScratch(tx *rcu.Tx[serverState], id string) {
	s.scratch[id] = 1
	tx.W.day++
}

// cloneUsers is clone-shaped: it may write freely and returns fresh
// memory that breaks the taint.
func cloneUsers(users map[string]*user) map[string]*user {
	next := make(map[string]*user, len(users))
	for k, v := range users {
		next[k] = v
	}
	return next
}

// goodViaClone mutates a clone, never the published container.
func (s *Server) goodViaClone(tx *rcu.Tx[serverState], id string) {
	next := cloneUsers(tx.W.users)
	next[id] = &user{name: id}
	tx.W.users = next
}

// scrub writes through its parameter; calls passing published
// containers are the violation, the function itself is fine.
func scrub(m map[string]*user, id string) {
	delete(m, id)
}

// forward propagates the write-through one hop: the fixpoint closes
// ParamWrites over local call chains.
func forward(m map[string]*user, id string) {
	scrub(m, id)
}

func (s *Server) badParamWrite(tx *rcu.Tx[serverState], id string) {
	scrub(tx.W.users, id)             // want `passes snapshot-reachable tx\.W\.users to snapshot/single\.scrub`
	forward(tx.W.users, id)           // want `passes snapshot-reachable tx\.W\.users to snapshot/single\.forward`
	scrub(cloneUsers(tx.W.users), id) // clone argument: fine
}

// audited write, justified at the site.
func (s *Server) annotated(tx *rcu.Tx[serverState], id string) {
	tx.W.users[id] = nil //eta2:snapshotimmutability-ok placeholder entry is invisible to readers by contract
}
