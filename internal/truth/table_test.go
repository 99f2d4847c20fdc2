package truth

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"eta2/internal/core"
)

// refStore is the nested-map store the table replaced, kept as the oracle of
// TestTableMatchesNestedMaps: the paper's per-(user, domain) accumulators
// with nothing clever about them.
type refStore struct {
	alpha, prior float64
	acc          map[core.UserID]map[core.DomainID][2]float64
}

func (r *refStore) commit(batch []Contribution) {
	for _, m := range r.acc {
		for d, a := range m {
			m[d] = [2]float64{r.alpha * a[0], r.alpha * a[1]}
		}
	}
	for _, c := range batch {
		if r.acc[c.User] == nil {
			r.acc[c.User] = map[core.DomainID][2]float64{}
		}
		a := r.acc[c.User][c.Domain]
		r.acc[c.User][c.Domain] = [2]float64{a[0] + c.Count, a[1] + c.ResidualSq}
	}
}

func (r *refStore) merge(into, from core.DomainID) {
	for _, m := range r.acc {
		if a, ok := m[from]; ok && into != from {
			m[into] = [2]float64{m[into][0] + a[0], m[into][1] + a[1]}
			delete(m, from)
		}
	}
}

func (r *refStore) clone() *refStore {
	out := &refStore{alpha: r.alpha, prior: r.prior, acc: map[core.UserID]map[core.DomainID][2]float64{}}
	for u, m := range r.acc {
		out.acc[u] = map[core.DomainID][2]float64{}
		for d, a := range m {
			out.acc[u][d] = a
		}
	}
	return out
}

func (r *refStore) state() StoreState {
	st := StoreState{Alpha: r.alpha, Prior: r.prior}
	for u, m := range r.acc {
		for d, a := range m {
			st.Entries = append(st.Entries, StoreEntry{User: u, Domain: d, N: a[0], D: a[1]})
		}
	}
	sort.Slice(st.Entries, func(i, j int) bool { return compareKeys(st.Entries[i], st.Entries[j]) < 0 })
	return st
}

// preview is PreviewExpertise; with no fresh evidence and alpha 1 it is
// Expertise.
func (r *refStore) preview(alpha float64, u core.UserID, d core.DomainID, count, residualSq float64) float64 {
	a := r.acc[u][d]
	n, den := alpha*a[0]+count, alpha*a[1]+residualSq
	if n <= 0 {
		return DefaultExpertise
	}
	return clamp(math.Sqrt((n+r.prior)/(den+r.prior)), MinExpertise, MaxExpertise)
}

// TestTableMatchesNestedMaps drives the table and the nested-map reference
// through the same seeded scripts and requires the exported state and every
// readout to agree bit for bit after each operation.
func TestTableMatchesNestedMaps(t *testing.T) {
	const users, domains = 12, 6
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alpha := []float64{0, 0.5, 0.9, 1}[seed%4]
		got, want := NewStore(alpha), &refStore{alpha: alpha, prior: DefaultStorePrior, acc: map[core.UserID]map[core.DomainID][2]float64{}}
		// The user and domain ranges widen as the script runs, so later
		// batches bring fresh users and fresh domains among known ones.
		for step := 0; step < 60; step++ {
			nu, nd := 2+step*users/60, 1+step*domains/60
			switch op := rng.Intn(10); {
			case op < 6:
				batch := make([]Contribution, rng.Intn(12))
				for i := range batch {
					batch[i] = Contribution{
						User: core.UserID(rng.Intn(nu) * 3), Domain: core.DomainID(1 + rng.Intn(nd)),
						Count: float64(rng.Intn(5)), ResidualSq: rng.ExpFloat64(),
					}
					if i > 0 && rng.Intn(3) == 0 { // the same pair again in one batch
						batch[i].User, batch[i].Domain = batch[i-1].User, batch[i-1].Domain
					}
				}
				got.Commit(batch)
				want.commit(batch)
			case op < 8:
				// Present and absent targets, from below and from above.
				into, from := core.DomainID(1+rng.Intn(domains+1)), core.DomainID(1+rng.Intn(domains+1))
				got.MergeDomains(into, from)
				want.merge(into, from)
			default:
				// Carry on with the clones; the originals are dropped.
				got, want = got.Clone(), want.clone()
			}
			if g, w := bitsOf(got.State()), bitsOf(want.state()); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d: state\n got %+v\nwant %+v", seed, step, got.State(), want.state())
			}
			for u := core.UserID(0); u < 3*users; u++ {
				for d := core.DomainID(0); d <= domains+1; d++ {
					c, r := float64(rng.Intn(4)), rng.Float64()
					if g, w := got.Expertise(u, d), want.preview(1, u, d, 0, 0); !bitsEqual(g, w) {
						t.Fatalf("seed %d step %d: Expertise(%d, %d) = %v, want %v", seed, step, u, d, g, w)
					}
					if g, w := got.Evidence(u, d), want.acc[u][d][0]; !bitsEqual(g, w) {
						t.Fatalf("seed %d step %d: Evidence(%d, %d) = %v, want %v", seed, step, u, d, g, w)
					}
					if g, w := got.PreviewExpertise(u, d, c, r), want.preview(alpha, u, d, c, r); !bitsEqual(g, w) {
						t.Fatalf("seed %d step %d: PreviewExpertise(%d, %d, %v, %v) = %v, want %v", seed, step, u, d, c, r, g, w)
					}
				}
			}
		}
		if len(got.State().Entries) < users {
			t.Fatalf("seed %d: script left %d entries", seed, len(got.State().Entries))
		}
	}
}

// TestStoreCloneIsolation (run it under -race): a clone shares its
// original's index, so nothing done to the clone — a commit bringing a fresh
// user, a domain merge — may write it or the original's rows while readers
// are on the original.
func TestStoreCloneIsolation(t *testing.T) {
	s := NewStore(0.5)
	var batch []Contribution
	for u := core.UserID(0); u < 50; u++ {
		for d := core.DomainID(1); d <= 4; d++ {
			batch = append(batch, Contribution{User: u, Domain: d, Count: 3, ResidualSq: float64(u) + 0.5})
		}
	}
	s.Commit(batch)
	before := bitsOf(s.State())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for u := core.UserID(0); u < 52; u++ {
					if s.Expertise(u, 2) <= 0 || s.Evidence(u, 3) < 0 {
						t.Error("impossible readout")
					}
				}
				if got := s.State(); len(got.Entries) != 200 {
					t.Errorf("original exports %d entries", len(got.Entries))
				}
			}
		}()
	}
	for round := 0; round < 50; round++ {
		c := s.Clone()
		c.Commit([]Contribution{{User: 25, Domain: 2, Count: 1, ResidualSq: 1}, {User: 50 + core.UserID(round), Domain: 1, Count: 1, ResidualSq: 1}})
		c.MergeDomains(1, 3)
		c.MergeDomains(4, 2)
		if c.Seen(0, 3) || !c.Seen(50+core.UserID(round), 1) || c.Evidence(25, 4) != 4 {
			t.Fatalf("round %d: clone did not take the commit and the merges", round)
		}
	}
	close(stop)
	wg.Wait()
	if !reflect.DeepEqual(bitsOf(s.State()), before) {
		t.Fatal("work on clones changed the original store")
	}
}

// TestStoreStateDoesNotAllocate: exporting is handing out the table, which
// is why capturing state under the server's writer lock costs nothing.
func TestStoreStateDoesNotAllocate(t *testing.T) {
	s := NewStore(0.5)
	s.Commit([]Contribution{{User: 2, Domain: 1, Count: 1, ResidualSq: 1}, {User: 1, Domain: 1, Count: 1, ResidualSq: 1}})
	var st StoreState
	if n := testing.AllocsPerRun(100, func() { st = s.State() }); n != 0 {
		t.Errorf("State allocates %v times per call", n)
	}
	if len(st.Entries) != 2 || cap(st.Entries) != 2 {
		t.Errorf("exported %d entries with capacity %d, want 2 and 2", len(st.Entries), cap(st.Entries))
	}
}
