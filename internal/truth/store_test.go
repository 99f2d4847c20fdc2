package truth

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"eta2/internal/core"
)

func TestExpertiseGetSetDefault(t *testing.T) {
	var e Expertise
	if e.Get(1, 1) != DefaultExpertise {
		t.Error("nil Expertise should return the default")
	}
	e = make(Expertise)
	if e.Get(1, 1) != DefaultExpertise {
		t.Error("missing entry should return the default")
	}
	e.Set(1, 1, 2.5)
	if e.Get(1, 1) != 2.5 {
		t.Error("set value not returned")
	}
}

func TestExpertiseClone(t *testing.T) {
	e := make(Expertise)
	e.Set(1, 1, 2)
	c := e.Clone()
	c.Set(1, 1, 9)
	if e.Get(1, 1) != 2 {
		t.Error("clone aliases original")
	}
	if (Expertise)(nil).Clone() == nil {
		// Clone of nil yields an empty non-nil map by construction.
		t.Log("nil clone returned nil") // acceptable either way; document behavior
	}
}

func TestExpertiseUsersSorted(t *testing.T) {
	e := make(Expertise)
	e.Set(5, 1, 1)
	e.Set(2, 1, 1)
	e.Set(9, 1, 1)
	users := e.Users()
	if len(users) != 3 || users[0] != 2 || users[1] != 5 || users[2] != 9 {
		t.Errorf("Users = %v", users)
	}
}

func TestStoreCommitAndExpertise(t *testing.T) {
	s := NewStore(1) // no decay
	if s.Expertise(1, 1) != DefaultExpertise {
		t.Error("empty store should return the default")
	}
	// 10 observations with total residual 10/4 → u ≈ sqrt((10+p)/(2.5+p)).
	s.Commit([]Contribution{{User: 1, Domain: 1, Count: 10, ResidualSq: 2.5}})
	want := math.Sqrt((10 + DefaultStorePrior) / (2.5 + DefaultStorePrior))
	if got := s.Expertise(1, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Expertise = %g, want %g", got, want)
	}
	if !s.Seen(1, 1) || s.Seen(1, 2) || s.Seen(2, 1) {
		t.Error("Seen bookkeeping wrong")
	}
	if s.Evidence(1, 1) != 10 {
		t.Errorf("Evidence = %g", s.Evidence(1, 1))
	}
}

func TestStoreDecay(t *testing.T) {
	s := NewStore(0.5)
	s.Commit([]Contribution{{User: 1, Domain: 1, Count: 8, ResidualSq: 2}})
	before := s.Expertise(1, 1)
	// Commit fresh evidence pointing at much lower expertise.
	s.Commit([]Contribution{{User: 1, Domain: 1, Count: 8, ResidualSq: 32}})
	after := s.Expertise(1, 1)
	if after >= before {
		t.Errorf("bad fresh evidence did not lower expertise: %g -> %g", before, after)
	}
	// With α=0.5 the old evidence halves: N = 4+8, D = 1+32.
	want := math.Sqrt((12 + DefaultStorePrior) / (33 + DefaultStorePrior))
	if math.Abs(after-want) > 1e-12 {
		t.Errorf("decayed expertise = %g, want %g", after, want)
	}
}

func TestStoreDecayForgetsFasterWithSmallAlpha(t *testing.T) {
	mkStore := func(alpha float64) *Store {
		s := NewStore(alpha)
		s.Commit([]Contribution{{User: 1, Domain: 1, Count: 20, ResidualSq: 2}})  // great history
		s.Commit([]Contribution{{User: 1, Domain: 1, Count: 20, ResidualSq: 80}}) // awful now
		return s
	}
	fast := mkStore(0.1).Expertise(1, 1)
	slow := mkStore(0.9).Expertise(1, 1)
	if fast >= slow {
		t.Errorf("α=0.1 should track the bad present more: fast=%g slow=%g", fast, slow)
	}
}

func TestStoreAlphaClamped(t *testing.T) {
	if NewStore(-1).State().Alpha != 0 || NewStore(2).State().Alpha != 1 {
		t.Error("alpha not clamped into [0, 1]")
	}
	if NewStore(0.3).State().Alpha != 0.3 {
		t.Error("valid alpha modified")
	}
}

func TestStoreMergeDomains(t *testing.T) {
	s := NewStore(1)
	s.Commit([]Contribution{
		{User: 1, Domain: 1, Count: 5, ResidualSq: 5},
		{User: 1, Domain: 2, Count: 5, ResidualSq: 1},
		{User: 2, Domain: 2, Count: 3, ResidualSq: 3},
	})
	s.MergeDomains(1, 2)
	// User 1: N=10, D=6 under domain 1; domain 2 gone.
	want := math.Sqrt((10 + DefaultStorePrior) / (6 + DefaultStorePrior))
	if got := s.Expertise(1, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged expertise = %g, want %g", got, want)
	}
	if s.Seen(1, 2) || s.Seen(2, 2) {
		t.Error("source domain not deleted")
	}
	if !s.Seen(2, 1) {
		t.Error("user 2's evidence lost in merge")
	}
	// Self-merge is a no-op.
	before := s.Expertise(1, 1)
	s.MergeDomains(1, 1)
	if s.Expertise(1, 1) != before {
		t.Error("self-merge changed state")
	}
}

func TestStoreCloneIndependent(t *testing.T) {
	s := NewStore(0.5)
	s.Commit([]Contribution{{User: 1, Domain: 1, Count: 4, ResidualSq: 1}})
	c := s.Clone()
	c.Commit([]Contribution{{User: 1, Domain: 1, Count: 100, ResidualSq: 1000}})
	if s.Expertise(1, 1) == c.Expertise(1, 1) {
		t.Error("clone shares accumulators with original")
	}
}

func TestPreviewExpertiseMatchesCommit(t *testing.T) {
	f := func(rawCount, rawResid uint8) bool {
		count := float64(rawCount%50) + 1
		resid := float64(rawResid%50) + 0.5
		s := NewStore(0.7)
		s.Commit([]Contribution{{User: 3, Domain: 2, Count: 10, ResidualSq: 5}})
		preview := s.PreviewExpertise(3, 2, count, resid)
		s.Commit([]Contribution{{User: 3, Domain: 2, Count: count, ResidualSq: resid}})
		return math.Abs(preview-s.Expertise(3, 2)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpertiseClamping(t *testing.T) {
	s := NewStore(1)
	// Perfect user: tiny residuals → clamped at MaxExpertise.
	s.Commit([]Contribution{{User: 1, Domain: 1, Count: 1e6, ResidualSq: 1e-9}})
	if got := s.Expertise(1, 1); got != MaxExpertise {
		t.Errorf("expertise %g not clamped at %g", got, MaxExpertise)
	}
	// Hopeless user: huge residuals → clamped at MinExpertise.
	s.Commit([]Contribution{{User: 2, Domain: 1, Count: 1, ResidualSq: 1e9}})
	if got := s.Expertise(2, 1); got != MinExpertise {
		t.Errorf("expertise %g not clamped at %g", got, MinExpertise)
	}
}

// Users returns the user IDs present in the snapshot, sorted.
func (e Expertise) Users() []core.UserID {
	out := make([]core.UserID, 0, len(e))
	for u := range e { //eta2:nondeterministic-ok collect-then-sort: the sort below fixes the order
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
