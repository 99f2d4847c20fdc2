package core

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternerBindLookup(t *testing.T) {
	in := NewInterner()
	if _, ok := in.Lookup("alice"); ok {
		t.Fatal("lookup on empty interner succeeded")
	}
	if err := in.Bind("alice", 0); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := in.Bind("bob", 1); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if id, ok := in.Lookup("alice"); !ok || id != 0 {
		t.Fatalf("alice = %d, %v; want 0, true", id, ok)
	}
	if id, ok := in.Lookup("bob"); !ok || id != 1 {
		t.Fatalf("bob = %d, %v; want 1, true", id, ok)
	}
}

func TestInternerRebindSameIDIsNoop(t *testing.T) {
	in := NewInterner()
	if err := in.Bind("alice", 3); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := in.Bind("alice", 3); err != nil {
		t.Fatalf("idempotent rebind: %v", err)
	}
	if id, ok := in.Lookup("alice"); !ok || id != 3 {
		t.Fatalf("alice = %d, %v after idempotent rebind; want 3, true", id, ok)
	}
}

func TestInternerRebindConflict(t *testing.T) {
	in := NewInterner()
	if err := in.Bind("alice", 3); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := in.Bind("alice", 4); err == nil {
		t.Fatal("rebinding alice to a different id succeeded")
	}
	if id, _ := in.Lookup("alice"); id != 3 {
		t.Fatalf("alice = %d after failed rebind, want 3", id)
	}
}

func TestInternerBindAllAtomic(t *testing.T) {
	in := NewInterner()
	if err := in.Bind("alice", 0); err != nil {
		t.Fatalf("bind: %v", err)
	}
	// Conflict in the middle of the batch: nothing from the batch lands.
	err := in.BindAll([]string{"carol", "alice", "dave"}, []int{2, 9, 3})
	if err == nil {
		t.Fatal("conflicting batch succeeded")
	}
	if _, ok := in.Lookup("carol"); ok {
		t.Fatal("carol bound despite batch conflict")
	}
	if _, ok := in.Lookup("dave"); ok {
		t.Fatal("dave bound despite batch conflict")
	}
	if err := in.BindAll([]string{"carol", "dave"}, []int{2, 3}); err != nil {
		t.Fatalf("clean batch: %v", err)
	}
	for name, want := range map[string]int{"alice": 0, "carol": 2, "dave": 3} {
		if id, ok := in.Lookup(name); !ok || id != want {
			t.Fatalf("%s = %d, %v; want %d, true", name, id, ok, want)
		}
	}
}

func TestInternerEmptyNameRejected(t *testing.T) {
	in := NewInterner()
	if err := in.Bind("", 0); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestInternerMismatchedBatch(t *testing.T) {
	in := NewInterner()
	if err := in.BindAll([]string{"a", "b"}, []int{1}); err == nil {
		t.Fatal("mismatched batch lengths accepted")
	}
}

// TestInternerConcurrent hammers Bind and Lookup from many goroutines; run
// with -race this verifies the lock-free read path against copy-on-write
// writers.
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	const (
		writers       = 4
		readers       = 4
		namesPerWrite = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < namesPerWrite; i++ {
				name := fmt.Sprintf("w%d-u%d", w, i)
				if err := in.Bind(name, w*namesPerWrite+i); err != nil {
					t.Errorf("bind %s: %v", name, err)
					return
				}
				// Every writer also races on a shared name with a fixed id:
				// idempotent rebinds must stay conflict-free under contention.
				if err := in.Bind("shared", 1<<20); err != nil {
					t.Errorf("bind shared: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < namesPerWrite*writers; i++ {
				name := fmt.Sprintf("w%d-u%d", i%writers, i%namesPerWrite)
				if id, ok := in.Lookup(name); ok {
					want := (i % writers * namesPerWrite) + i%namesPerWrite
					if id != want {
						t.Errorf("lookup %s = %d, want %d", name, id, want)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if n := len(in.p.Load().ids); n != writers*namesPerWrite+1 {
		t.Fatalf("%d names bound, want %d", n, writers*namesPerWrite+1)
	}
}

// Bind binds name to id, or verifies an existing binding. Binding the same
// name to a different id is an error: names are aliases for dense ids and
// must stay stable for the lifetime of the table.
func (in *Interner) Bind(name string, id int) error {
	return in.BindAll([]string{name}, []int{id})
}
