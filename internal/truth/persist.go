package truth

import (
	"errors"
	"fmt"
	"slices"
)

// StoreState is the serializable snapshot of a Store, used by server
// persistence: the store's own rows, in strictly ascending (user, domain)
// order, so snapshots are byte-stable for a given store.
type StoreState struct {
	Alpha   float64
	Prior   float64
	Entries []StoreEntry
}

// State exports the store's accumulators: Entries is the table itself,
// capacity-clipped, not a copy. It stays as it is until something is committed
// or merged into this very store, which the server does to clones only.
func (s *Store) State() StoreState {
	return StoreState{Alpha: s.alpha, Prior: s.prior, Entries: slices.Clip(s.rows)}
}

// ErrBadStoreState is returned when restoring an invalid snapshot.
var ErrBadStoreState = errors.New("truth: invalid store state")

// Check reports, wrapping ErrBadStoreState, what keeps st from being a
// store's state: a decay factor outside [0, 1], a negative prior, entries not
// strictly ascending by (user, domain), a negative accumulator — or a NaN.
func (st StoreState) Check() error {
	if !(st.Alpha >= 0 && st.Alpha <= 1 && st.Prior >= 0) {
		return fmt.Errorf("%w: decay factor %v, prior %v", ErrBadStoreState, st.Alpha, st.Prior)
	}
	for i, e := range st.Entries {
		if i > 0 && compareKeys(st.Entries[i-1], e) >= 0 {
			return fmt.Errorf("%w: entry %d (user %d, domain %d) does not sort after the entry before it (user %d, domain %d)",
				ErrBadStoreState, i, e.User, e.Domain, st.Entries[i-1].User, st.Entries[i-1].Domain)
		}
		if !(e.N >= 0 && e.D >= 0) {
			return fmt.Errorf("%w: entry %d (user %d, domain %d) has N = %v, D = %v", ErrBadStoreState, i, e.User, e.Domain, e.N, e.D)
		}
	}
	return nil
}

// RestoreStore rebuilds a Store from a snapshot. It adopts st.Entries as
// the store's table: the caller must not write to them afterwards.
func RestoreStore(st StoreState) (*Store, error) {
	if err := st.Check(); err != nil {
		return nil, err
	}
	return &Store{alpha: st.Alpha, prior: st.Prior, rows: st.Entries, first: indexRows(st.Entries, 0)}, nil
}
