package truth

import (
	"math"
	"reflect"
	"testing"
)

// These tests lock in the bit-identity contract the maprange and floatcmp
// findings of this package were audited against: Go randomizes map
// iteration per range statement, so if any annotated
// //eta2:nondeterministic-ok loop actually fed float accumulation, or the
// dense hot path's zero-weight guard misbehaved, repeated runs over
// identical content would diverge in the low bits.

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameResult(t *testing.T, base, got Result, run int) {
	t.Helper()
	if len(base.Mu) != len(got.Mu) || len(base.Sigma) != len(got.Sigma) {
		t.Fatalf("run %d: result sizes differ", run)
	}
	for id, v := range base.Mu {
		if !bitsEqual(v, got.Mu[id]) {
			t.Fatalf("run %d: Mu[%d] = %v, want bit-identical %v", run, id, got.Mu[id], v)
		}
	}
	for id, v := range base.Sigma {
		if !bitsEqual(v, got.Sigma[id]) {
			t.Fatalf("run %d: Sigma[%d] = %v, want bit-identical %v", run, id, got.Sigma[id], v)
		}
	}
	for u, m := range base.Expertise {
		for d, v := range m {
			if !bitsEqual(v, got.Expertise.Get(u, d)) {
				t.Fatalf("run %d: Expertise[%d][%d] = %v, want bit-identical %v",
					run, u, d, got.Expertise.Get(u, d), v)
			}
		}
	}
	if base.Iterations != got.Iterations || base.Converged != got.Converged {
		t.Fatalf("run %d: iterations/convergence differ: %d/%v vs %d/%v",
			run, got.Iterations, got.Converged, base.Iterations, base.Converged)
	}
}

func TestEstimateBitIdenticalAcrossRuns(t *testing.T) {
	w := newSynthWorld(11, 6)
	base, err := Estimate(w.table(), w.domainOf, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 4; run++ {
		got, err := Estimate(w.table(), w.domainOf, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, base, got, run)
	}
}

// TestEstimateBitIdenticalUnderInitInsertionOrder rebuilds the same init
// Expertise with different map insertion orders: content, not layout,
// must determine the output.
func TestEstimateBitIdenticalUnderInitInsertionOrder(t *testing.T) {
	w := newSynthWorld(13, 5)
	seed, err := Estimate(w.table(), w.domainOf, nil, Config{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}

	users := seed.Expertise.Users()
	forward := make(Expertise)
	for _, u := range users {
		for d, v := range seed.Expertise[u] {
			forward.Set(u, d, v)
		}
	}
	backward := make(Expertise)
	for i := len(users) - 1; i >= 0; i-- {
		u := users[i]
		for d, v := range seed.Expertise[u] {
			backward.Set(u, d, v)
		}
	}

	base, err := Estimate(w.table(), w.domainOf, forward, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Estimate(w.table(), w.domainOf, backward, Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, base, got, 1)
}

// TestStoreExportsBitIdenticalAcrossClones: a clone is a copy of the table,
// so it must export bit-identical data and read out bit-identical expertise.
func TestStoreExportsBitIdenticalAcrossClones(t *testing.T) {
	s := NewStore(0.9)
	batch := []Contribution{
		{User: 3, Domain: 1, Count: 4, ResidualSq: 0.25},
		{User: 1, Domain: 2, Count: 2, ResidualSq: 1.5},
		{User: 7, Domain: 1, Count: 9, ResidualSq: 3.75},
		{User: 3, Domain: 2, Count: 1, ResidualSq: 0.125},
	}
	s.Commit(batch)
	s.Commit(batch[2:])

	c := s.Clone()
	if !reflect.DeepEqual(bitsOf(s.State()), bitsOf(c.State())) {
		t.Fatalf("clone exports %+v, original %+v", c.State(), s.State())
	}
	for _, e := range s.State().Entries {
		if v, cv := s.Expertise(e.User, e.Domain), c.Expertise(e.User, e.Domain); !bitsEqual(v, cv) {
			t.Fatalf("expertise(%d, %d) = %v vs clone %v", e.User, e.Domain, v, cv)
		}
	}
}
