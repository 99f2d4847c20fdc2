package truth

import (
	"errors"
	"sort"

	"eta2/internal/core"
)

// StoreState is the serializable snapshot of a Store, used by server
// persistence. Entries are sorted by (user, domain) so snapshots are
// byte-stable for a given store.
type StoreState struct {
	Alpha   float64
	Prior   float64
	Entries []StoreEntry
}

// StoreEntry is one (user, domain) accumulator pair.
type StoreEntry struct {
	User   core.UserID
	Domain core.DomainID
	N      float64
	D      float64
}

// State exports the store's accumulators.
func (s *Store) State() StoreState {
	st := StoreState{Alpha: s.alpha, Prior: s.prior}
	for u, m := range s.acc { //eta2:nondeterministic-ok collect-then-sort: the sort below fixes the order
		for d, a := range m { //eta2:nondeterministic-ok collect-then-sort: the sort below fixes the order
			st.Entries = append(st.Entries, StoreEntry{User: u, Domain: d, N: a.N, D: a.D})
		}
	}
	sort.Slice(st.Entries, func(i, j int) bool {
		if st.Entries[i].User != st.Entries[j].User {
			return st.Entries[i].User < st.Entries[j].User
		}
		return st.Entries[i].Domain < st.Entries[j].Domain
	})
	return st
}

// ErrBadStoreState is returned when restoring an invalid snapshot.
var ErrBadStoreState = errors.New("truth: invalid store state")

// RestoreStore rebuilds a Store from a snapshot.
func RestoreStore(st StoreState) (*Store, error) {
	if st.Alpha < 0 || st.Alpha > 1 || st.Prior < 0 {
		return nil, ErrBadStoreState
	}
	s := NewStore(st.Alpha)
	s.prior = st.Prior
	for _, e := range st.Entries {
		if e.N < 0 || e.D < 0 {
			return nil, ErrBadStoreState
		}
		m, ok := s.acc[e.User]
		if !ok {
			m = make(map[core.DomainID]accumulator)
			s.acc[e.User] = m
		}
		m[e.Domain] = accumulator{N: e.N, D: e.D}
	}
	return s, nil
}
