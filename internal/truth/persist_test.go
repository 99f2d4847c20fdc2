package truth

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestStoreStateRoundTrip(t *testing.T) {
	s := NewStore(0.7)
	s.Commit([]Contribution{
		{User: 3, Domain: 1, Count: 10, ResidualSq: 4},
		{User: 1, Domain: 2, Count: 5, ResidualSq: 20},
		{User: 3, Domain: 2, Count: 2, ResidualSq: 1},
	})

	st := s.State()
	// Entries sorted by (user, domain).
	if len(st.Entries) != 3 || st.Entries[0].User != 1 || st.Entries[1].Domain != 1 {
		t.Fatalf("entries = %+v", st.Entries)
	}

	restored, err := RestoreStore(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.Entries {
		if restored.Expertise(e.User, e.Domain) != s.Expertise(e.User, e.Domain) {
			t.Errorf("expertise(%d,%d) differs after restore", e.User, e.Domain)
		}
		if restored.Evidence(e.User, e.Domain) != s.Evidence(e.User, e.Domain) {
			t.Errorf("evidence(%d,%d) differs after restore", e.User, e.Domain)
		}
	}
	if restored.State().Alpha != s.State().Alpha {
		t.Error("alpha lost")
	}
}

func TestStoreStateJSONStable(t *testing.T) {
	s := NewStore(0.5)
	s.Commit([]Contribution{
		{User: 2, Domain: 1, Count: 3, ResidualSq: 1},
		{User: 1, Domain: 1, Count: 3, ResidualSq: 2},
	})
	// Two exports of one store are the same entries in (user, domain) order,
	// whatever order they were committed in.
	want := []StoreEntry{{User: 1, Domain: 1, N: 3, D: 2}, {User: 2, Domain: 1, N: 3, D: 1}}
	for i := 0; i < 20; i++ {
		if got := s.State(); !reflect.DeepEqual(got.Entries, want) {
			t.Fatalf("export %d: entries = %+v, want %+v", i, got.Entries, want)
		}
	}
}

func TestRestoreStoreRejectsInvalid(t *testing.T) {
	cases := []StoreState{
		{Alpha: -0.1, Prior: 0.5},
		{Alpha: 1.5, Prior: 0.5},
		{Alpha: 0.5, Prior: -1},
		{Alpha: 0.5, Prior: 0.5, Entries: []StoreEntry{{User: 1, Domain: 1, N: -1, D: 1}}},
		{Alpha: 0.5, Prior: 0.5, Entries: []StoreEntry{{User: 1, Domain: 1, N: 1, D: -1}}},
		{Alpha: math.NaN(), Prior: 0.5},
		{Alpha: 0.5, Prior: math.NaN()},
		{Alpha: 0.5, Prior: 0.5, Entries: []StoreEntry{{User: 1, Domain: 1, N: math.NaN(), D: 1}}},
		{Alpha: 0.5, Prior: 0.5, Entries: []StoreEntry{{User: 1, Domain: 1, N: 1, D: math.NaN()}}},
		{Alpha: 0.5, Prior: 0.5, Entries: []StoreEntry{{User: 1, Domain: 1, N: 1, D: 1}, {User: 1, Domain: 1, N: 2, D: 2}}},
		{Alpha: 0.5, Prior: 0.5, Entries: []StoreEntry{{User: 1, Domain: 2, N: 1, D: 1}, {User: 1, Domain: 1, N: 1, D: 1}}},
		{Alpha: 0.5, Prior: 0.5, Entries: []StoreEntry{{User: 2, Domain: 1, N: 1, D: 1}, {User: 1, Domain: 3, N: 1, D: 1}}},
	}
	for i, st := range cases {
		if _, err := RestoreStore(st); !errors.Is(err, ErrBadStoreState) {
			t.Errorf("case %d: RestoreStore = %v, want ErrBadStoreState", i, err)
		}
	}
}
