package truth

import (
	"reflect"
	"testing"

	"eta2/internal/core"
)

// expertiseEqual reports whether two snapshots contain exactly the same
// (user, domain, value) triples, bit-for-bit.
func expertiseEqual(a, b Expertise) bool {
	if len(a) != len(b) {
		return false
	}
	for u, am := range a {
		bm, ok := b[u]
		if !ok || len(am) != len(bm) {
			return false
		}
		for d, av := range am {
			if bv, ok := bm[d]; !ok || av != bv {
				return false
			}
		}
	}
	return true
}

// TestEstimateParallelMatchesSequential is the determinism guarantee of the
// worker pool: every Parallelism value must produce bit-identical
// Mu/Sigma/Expertise, because each dense task and each dense user row is
// owned by exactly one worker.
func TestEstimateParallelMatchesSequential(t *testing.T) {
	w := newSynthWorld(11, 8)
	seq, err := Estimate(w.table(), w.domainOf, nil, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		par, err := Estimate(w.table(), w.domainOf, nil, Config{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Iterations != seq.Iterations || par.Converged != seq.Converged {
			t.Fatalf("Parallelism=%d: iterations/converged %d/%v, want %d/%v",
				workers, par.Iterations, par.Converged, seq.Iterations, seq.Converged)
		}
		if len(par.Mu) != len(seq.Mu) {
			t.Fatalf("Parallelism=%d: %d truths, want %d", workers, len(par.Mu), len(seq.Mu))
		}
		for id, v := range seq.Mu {
			if par.Mu[id] != v {
				t.Fatalf("Parallelism=%d: Mu[%d] = %v, want %v (not bit-identical)", workers, id, par.Mu[id], v)
			}
		}
		for id, v := range seq.Sigma {
			if par.Sigma[id] != v {
				t.Fatalf("Parallelism=%d: Sigma[%d] = %v, want %v", workers, id, par.Sigma[id], v)
			}
		}
		if !expertiseEqual(par.Expertise, seq.Expertise) {
			t.Fatalf("Parallelism=%d: expertise snapshots differ", workers)
		}
	}
}

// TestEstimateParallelWithInit exercises the same guarantee with a warm
// expertise initialization (the path the server's dynamic update takes).
func TestEstimateParallelWithInit(t *testing.T) {
	w := newSynthWorld(12, 6)
	init := make(Expertise)
	init.Set(0, 1, 2.5)
	init.Set(3, 2, 0.4)
	seq, err := Estimate(w.table(), w.domainOf, init, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Estimate(w.table(), w.domainOf, init, Config{Parallelism: 7})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range seq.Mu {
		if par.Mu[id] != v {
			t.Fatalf("Mu[%d] differs with warm init", id)
		}
	}
	if !expertiseEqual(par.Expertise, seq.Expertise) {
		t.Fatal("expertise differs with warm init")
	}
}

// TestUpdateStepParallelMatchesSequential covers the dynamic-update path:
// same store state in, identical estimates and identical committed evidence
// out, for any worker count.
func TestUpdateStepParallelMatchesSequential(t *testing.T) {
	w := newSynthWorld(13, 8)
	warm := func() *Store {
		s := NewStore(0.7)
		s.Commit([]Contribution{
			{User: 0, Domain: 1, Count: 20, ResidualSq: 10},
			{User: 1, Domain: 2, Count: 5, ResidualSq: 40},
		})
		return s
	}

	s1 := warm()
	seq, err := UpdateStep(s1, w.table(), w.domainOf, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		sN := warm()
		par, err := UpdateStep(sN, w.table(), w.domainOf, Config{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Iterations != seq.Iterations || par.Converged != seq.Converged {
			t.Fatalf("Parallelism=%d: iterations/converged differ", workers)
		}
		for id, v := range seq.Mu {
			if par.Mu[id] != v {
				t.Fatalf("Parallelism=%d: Mu[%d] = %v, want %v", workers, id, par.Mu[id], v)
			}
		}
		for id, v := range seq.Sigma {
			if par.Sigma[id] != v {
				t.Fatalf("Parallelism=%d: Sigma[%d] differs", workers, id)
			}
		}
		if !reflect.DeepEqual(bitsOf(sN.State()), bitsOf(s1.State())) {
			t.Fatalf("Parallelism=%d: committed store state differs", workers)
		}
	}
}

// TestContributionsParallelMatchesSequential checks the standalone
// contributions extraction, including partial mu coverage and the
// deterministic output ordering.
func TestContributionsParallelMatchesSequential(t *testing.T) {
	w := newSynthWorld(14, 5)
	res, err := Estimate(w.table(), w.domainOf, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Drop some tasks from mu to exercise the skip path.
	for j := 0; j < w.nTasks; j += 7 {
		delete(res.Mu, core.TaskID(j))
	}
	seq := Contributions(w.table(), w.domainOf, res.Mu, res.Sigma, Config{Parallelism: 1})
	par := Contributions(w.table(), w.domainOf, res.Mu, res.Sigma, Config{Parallelism: 6})
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("got %d vs %d contributions", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("contribution %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}
