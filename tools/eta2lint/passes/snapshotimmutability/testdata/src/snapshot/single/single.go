// Package single exercises snapshotimmutability inside one package: the
// snapshot contract is read off the declarations — the type publishLocked's
// receiver holds behind an atomic.Pointer — writes through a container of
// the working value or of a loaded state are flagged, and the copy-on-write
// idiom passes.
package single

import (
	"slices"
	"sync/atomic"
)

type user struct {
	name  string
	score int
}

// serverState is the one declaration of the state: the owner holds the
// writers' working value of it and publishes copies.
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
	mu int // stand-in
	// w is the working value: every container in it is shared with the
	// published copies.
	w serverState
	// scratch is NOT state: writes to it stay legal.
	scratch map[string]int
	state   atomic.Pointer[serverState]
}

// publishLocked is the single publication point: a copy of the working
// value. Its receiver's atomic.Pointer field names the snapshot type.
func (s *Server) publishLocked() {
	st := s.w
	s.state.Store(&st)
}

// badCopyWrite writes through a container of a copied state: the copy
// shares it with the working value and every published state.
func (s *Server) badCopyWrite(id string) {
	st := s.w
	st.day = 3           // the copy's own scalar: fine
	st.users[id] = nil   // want `write to st\.users\[id\] mutates`
	st.users = nil       // the copy's own header: fine
	s.state.Load().day++ // want `write to s\.state\.Load\(\)\.day mutates`
}

// goodHandle mutates through the published handle, off the owner and off
// a loaded snapshot: the annotation on the field's declaration covers every
// use. The snapshot's own field is still frozen.
func (s *Server) goodHandle() {
	s.w.log.Append()
	st := s.state.Load()
	st.log.Append()
	l := st.log
	l.Append()
	st.log = nil // want `write to st\.log mutates`
}

// badDirectWrites stores straight into published containers.
func (s *Server) badDirectWrites(id string, u *user) {
	s.w.users[id] = u             // want `write to s\.w\.users\[id\] mutates memory reachable from the published snapshot`
	s.w.truths[id] = 0.5          // want `write to s\.w\.truths\[id\] mutates`
	delete(s.w.users, id)         // want `delete mutates s\.w\.users`
	s.w.users[id].score++         // want `write to s\.w\.users\[id\]\.score mutates`
	for _, u := range s.w.users { // element pointers alias published memory
		u.score = 0 // want `write to u\.score mutates`
	}
}

// badAlias writes through a local alias of a published container.
func (s *Server) badAlias(id string) {
	m := s.w.users
	m[id] = nil // want `write to m\[id\] mutates`
}

// badSnapshotWrite mutates a snapshot obtained from the atomic pointer.
func (s *Server) badSnapshotWrite(id string) {
	st := s.state.Load()
	st.day = 9         // want `write to st\.day mutates`
	st.users[id] = nil // want `write to st\.users\[id\] mutates`
}

// goodCOW is the sanctioned idiom: build fresh, then swap wholesale.
func (s *Server) goodCOW(id string, u *user) {
	next := make(map[string]*user, len(s.w.users)+1)
	for k, v := range s.w.users {
		next[k] = v
	}
	next[id] = u
	s.w.users = next // wholesale replacement, not a write into shared memory
	s.publishLocked()
}

// badColumnWrites stores into a published column: through the owner
// field, a loaded snapshot, an alias, and a callee that writes its parameter.
func (s *Server) badColumnWrites(i, d int) {
	s.w.domainOf[i] = d // want `write to s\.w\.domainOf\[i\] mutates`
	st := s.state.Load()
	st.domainOf[i] = d // want `write to st\.domainOf\[i\] mutates`
	col := s.w.domainOf
	col[i] = d              // want `write to col\[i\] mutates`
	copy(s.w.domainOf, col) // want `copy mutates s\.w\.domainOf`
	assign(s.w.domainOf, i) // want `passes snapshot-reachable s\.w\.domainOf to snapshot/single\.assign`
	assign(st.domainOf, i)  // want `passes snapshot-reachable st\.domainOf to snapshot/single\.assign`
}

// assign writes through its slice parameter.
func assign(col []int, i int) { col[i] = 1 }

// goodColumnWrites are the two legal shapes: append past every captured
// header and swap the field, or change an entry in a copy and swap that.
func (s *Server) goodColumnWrites(i, d int) {
	s.w.domainOf = append(s.w.domainOf, d)
	next := slices.Clone(s.w.domainOf)
	next[i] = d
	assign(next, i)
	s.w.domainOf = next
	grown := make([]int, len(s.w.domainOf)+1)
	copy(grown, s.w.domainOf)
	grown[i] = d
	s.w.domainOf = grown
	s.publishLocked()
}

// goodScratch writes to a field that is not state, and assigns a scalar of
// the working value: the next copy's, not a published one's.
func (s *Server) goodScratch(id string) {
	s.scratch[id] = 1
	s.w.day++
}

// cloneUsers is clone-shaped: it may write freely and returns fresh
// memory that breaks the taint.
func (s *Server) cloneUsers() map[string]*user {
	next := make(map[string]*user, len(s.w.users))
	for k, v := range s.w.users {
		next[k] = v
	}
	return next
}

// goodViaClone mutates a clone, never the published container.
func (s *Server) goodViaClone(id string) {
	next := s.cloneUsers()
	next[id] = &user{name: id}
	s.w.users = next
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

func (s *Server) badParamWrite(id string) {
	scrub(s.w.users, id)      // want `passes snapshot-reachable s\.w\.users to snapshot/single\.scrub`
	forward(s.w.users, id)    // want `passes snapshot-reachable s\.w\.users to snapshot/single\.forward`
	scrub(s.cloneUsers(), id) // clone argument: fine
}

// audited write, justified at the site.
func (s *Server) annotated(id string) {
	s.w.users[id] = nil //eta2:snapshotimmutability-ok placeholder entry is invisible to readers by contract
}
