package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Interner is a string → dense-int table. The server does not use it: its
// name index is a field of its published state (DESIGN.md §15). The type is
// kept only for benchmark/shadow.go, which times NewInterner, BindAll and
// Lookup for its core.intern_* metrics, until ROADMAP 10(b) deletes that file.
//
// The read path is lock-free: Lookup loads an immutable table through an
// atomic pointer and never blocks behind writers, matching the server's
// snapshot-read discipline. Writers copy the table under a mutex and
// publish the successor atomically (copy-on-write), so a table observed by
// a reader is never mutated in place.
type Interner struct {
	mu sync.Mutex // serializes writers; readers never take it
	p  atomic.Pointer[internTable]
}

// internTable is one immutable generation of the intern table.
type internTable struct {
	ids map[string]int
}

var emptyInternTable = &internTable{ids: map[string]int{}}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	in := &Interner{}
	in.p.Store(emptyInternTable)
	return in
}

// Lookup resolves name to its bound id. It is lock-free and safe for any
// number of concurrent callers, including concurrently with Bind.
func (in *Interner) Lookup(name string) (int, bool) {
	id, ok := in.p.Load().ids[name]
	return id, ok
}

// BindAll binds names[i] to ids[i] for all i in one copy-on-write step,
// so batch inserts pay one table copy instead of one per name. Either the
// whole batch is published or none of it: any conflicting rebinding (or a
// conflict within the batch itself) rejects the call without side effects.
func (in *Interner) BindAll(names []string, ids []int) error {
	if len(names) != len(ids) {
		return fmt.Errorf("core: intern: %d names for %d ids", len(names), len(ids))
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	cur := in.p.Load()
	next := (*internTable)(nil) // copied lazily: verify-only batches stay allocation-free
	for i, name := range names {
		if name == "" {
			return fmt.Errorf("core: intern: empty name for id %d", ids[i])
		}
		tab := cur
		if next != nil {
			tab = next
		}
		if have, ok := tab.ids[name]; ok {
			if have != ids[i] {
				return fmt.Errorf("core: intern: name %q already bound to id %d, cannot rebind to %d", name, have, ids[i])
			}
			continue
		}
		if next == nil {
			next = &internTable{ids: maps.Clone(cur.ids)}
		}
		next.ids[name] = ids[i]
	}
	if next != nil {
		in.p.Store(next)
	}
	return nil
}
