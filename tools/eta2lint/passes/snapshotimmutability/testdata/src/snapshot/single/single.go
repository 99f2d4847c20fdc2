// Package single exercises snapshotimmutability inside one package: the
// snapshot contract is derived from publishLocked, writes after publish
// are flagged, and the copy-on-write idiom passes.
package single

import (
	"slices"
	"sync/atomic"
)

type user struct {
	name  string
	score int
}

type serverState struct {
	users    map[string]*user
	truths   map[string]float64
	domainOf []int
	day      int
	log      *wlog
}

// wlog stands in for an internally synchronized handle (the WAL).
type wlog struct{ n int }

func (l *wlog) Append() { l.n++ }

type Server struct {
	mu    int // stand-in
	users map[string]*user
	// truths is shared with the published snapshot too.
	truths map[string]float64
	// domainOf is a published column: append-only below a captured header.
	domainOf []int
	// scratch is NOT published: writes to it stay legal.
	scratch map[string]int
	state   atomic.Pointer[serverState]
	day     int
	log     *wlog
}

// publishLocked is the single publication point the analyzer learns the
// contract from: serverState is the snapshot type; users and truths are
// publish roots.
func (s *Server) publishLocked() {
	s.state.Store(&serverState{
		users:    s.users,
		truths:   s.truths,
		domainOf: s.domainOf,
		day:      s.day,
		log:      s.log, //eta2:snapshotimmutability-ok synchronized handle, published so readers can reach it, not frozen data
	})
}

// goodHandle mutates through the published handle, off the owner and off
// a loaded snapshot: the publish-site annotation covers every use. The
// snapshot's own field is still frozen.
func (s *Server) goodHandle() {
	s.log.Append()
	st := s.state.Load()
	st.log.Append()
	l := st.log
	l.Append()
	st.log = nil // want `write to st\.log mutates`
}

// badDirectWrites stores straight into published containers.
func (s *Server) badDirectWrites(id string, u *user) {
	s.users[id] = u             // want `write to s\.users\[id\] mutates memory reachable from the published snapshot`
	s.truths[id] = 0.5          // want `write to s\.truths\[id\] mutates`
	delete(s.users, id)         // want `delete mutates s\.users`
	s.users[id].score++         // want `write to s\.users\[id\]\.score mutates`
	for _, u := range s.users { // element pointers alias published memory
		u.score = 0 // want `write to u\.score mutates`
	}
}

// badAlias writes through a local alias of a published container.
func (s *Server) badAlias(id string) {
	m := s.users
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
	next := make(map[string]*user, len(s.users)+1)
	for k, v := range s.users {
		next[k] = v
	}
	next[id] = u
	s.users = next // wholesale replacement, not a write into shared memory
	s.publishLocked()
}

// badColumnWrites stores into a published column: through the owner
// field, a loaded snapshot, an alias, and a callee that writes its parameter.
func (s *Server) badColumnWrites(i, d int) {
	s.domainOf[i] = d // want `write to s\.domainOf\[i\] mutates`
	st := s.state.Load()
	st.domainOf[i] = d // want `write to st\.domainOf\[i\] mutates`
	col := s.domainOf
	col[i] = d             // want `write to col\[i\] mutates`
	copy(s.domainOf, col)  // want `copy mutates s\.domainOf`
	assign(s.domainOf, i)  // want `passes snapshot-reachable s\.domainOf to snapshot/single\.assign`
	assign(st.domainOf, i) // want `passes snapshot-reachable st\.domainOf to snapshot/single\.assign`
}

// assign writes through its slice parameter.
func assign(col []int, i int) { col[i] = 1 }

// goodColumnWrites are the two legal shapes: append past every captured
// header and swap the field, or change an entry in a copy and swap that.
func (s *Server) goodColumnWrites(i, d int) {
	s.domainOf = append(s.domainOf, d)
	next := slices.Clone(s.domainOf)
	next[i] = d
	assign(next, i)
	s.domainOf = next
	grown := make([]int, len(s.domainOf)+1)
	copy(grown, s.domainOf)
	grown[i] = d
	s.domainOf = grown
	s.publishLocked()
}

// goodScratch writes to an unpublished field.
func (s *Server) goodScratch(id string) {
	s.scratch[id] = 1
	s.day++
}

// cloneUsers is clone-shaped: it may write freely and returns fresh
// memory that breaks the taint.
func (s *Server) cloneUsers() map[string]*user {
	next := make(map[string]*user, len(s.users))
	for k, v := range s.users {
		next[k] = v
	}
	return next
}

// goodViaClone mutates a clone, never the published container.
func (s *Server) goodViaClone(id string) {
	next := s.cloneUsers()
	next[id] = &user{name: id}
	s.users = next
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
	scrub(s.users, id)        // want `passes snapshot-reachable s\.users to snapshot/single\.scrub`
	forward(s.users, id)      // want `passes snapshot-reachable s\.users to snapshot/single\.forward`
	scrub(s.cloneUsers(), id) // clone argument: fine
}

// audited write, justified at the site.
func (s *Server) annotated(id string) {
	s.users[id] = nil //eta2:snapshotimmutability-ok placeholder entry is invisible to readers by contract
}
