// Package truth implements ETA²'s expertise-aware truth analysis (Sec. 4 of
// the paper): a statistical model in which user i's observation of task j is
// N(μ_j, (σ_j/u_i^{d_j})²), jointly estimated by maximum likelihood; a
// persistent expertise store updated across time steps with a decay factor;
// and the MLE asymptotic-normality confidence interval used by min-cost
// allocation.
package truth

import (
	"cmp"
	"maps"
	"math"
	"slices"

	"eta2/internal/core"
)

// DefaultExpertise is the prior expertise assumed for a user in a domain
// with no observations yet (the paper initializes u_i^k = 1).
const DefaultExpertise = 1.0

// Expertise is a point-in-time snapshot of per-user per-domain expertise.
type Expertise map[core.UserID]map[core.DomainID]float64

// Get returns the expertise of user u in domain d, defaulting to
// DefaultExpertise when nothing is known (including for DomainNone).
func (e Expertise) Get(u core.UserID, d core.DomainID) float64 {
	if e == nil {
		return DefaultExpertise
	}
	if m, ok := e[u]; ok {
		if v, ok := m[d]; ok {
			return v
		}
	}
	return DefaultExpertise
}

// Set records the expertise of user u in domain d.
func (e Expertise) Set(u core.UserID, d core.DomainID, v float64) {
	m, ok := e[u]
	if !ok {
		m = make(map[core.DomainID]float64)
		e[u] = m
	}
	m[d] = v
}

// Clone deep-copies the snapshot.
func (e Expertise) Clone() Expertise {
	out := make(Expertise, len(e))
	for u, m := range e { //eta2:nondeterministic-ok map-to-map copy, independent per-key write: order-independent
		out[u] = maps.Clone(m)
	}
	return out
}

// DefaultPriorStrength is the pseudo-count of the shrinkage prior applied
// when converting accumulators to expertise (see Config.PriorStrength).
const DefaultPriorStrength = 2.0

// StoreEntry is one row of the store: the decayed numerator N(u_i^k) and
// denominator D(u_i^k) of Eq. 7–8 for one (user, domain). N counts
// observations, D sums squared normalized residuals.
type StoreEntry struct {
	User   core.UserID
	Domain core.DomainID
	N      float64
	D      float64
}

// compareKeys orders rows by (user, domain).
func compareKeys(a, b StoreEntry) int {
	return cmp.Or(cmp.Compare(a.User, b.User), cmp.Compare(a.Domain, b.Domain))
}

// Store is the persistent expertise state of the server. It survives across
// time steps; each step's freshly estimated residuals are folded in with the
// decay factor α (Eq. 7–9), and clustering-driven domain merges are applied
// with MergeDomains.
//
// The state is one table, rows, in strictly ascending (user, domain) order —
// what the snapshot codec writes — and first, each user's first row: a lookup
// is one map read and a scan of that user's rows, one per domain at most.
// first is replaced, never written, once built, so clones share it.
type Store struct {
	alpha float64
	prior float64
	rows  []StoreEntry
	first map[core.UserID]int
}

// DefaultStorePrior is the pseudo-count used when reading expertise out of
// a Store's accumulators. It is deliberately much weaker than the batch
// Config.PriorStrength: the store's decayed accumulators already anchor the
// dynamic-update iteration (the candidate expertise cannot run away from
// α·N^T, α·D^T), so only a light touch is needed — and a strong prior here
// would compound day after day, deflating expert users' expertise (see the
// scale-drift discussion in DESIGN.md).
const DefaultStorePrior = 0.5

// NewStore creates a Store with decay factor alpha ∈ [0, 1] (α scales the
// historical accumulators each update; α=1 never forgets, α=0 keeps only
// the newest batch). Out-of-range alphas are clamped.
func NewStore(alpha float64) *Store {
	return &Store{alpha: clamp(alpha, 0, 1), prior: DefaultStorePrior}
}

// Expertise clamping bounds. u→0 makes observation variance diverge and
// u→∞ makes a single user dominate every estimate; both break the MLE
// fixed-point iteration, so learned expertise is kept within these bounds.
const (
	MinExpertise = 0.05
	MaxExpertise = 20.0
)

// row returns the (u, d) row and its index: zero accumulators and -1 when the
// table holds no such row.
func (s *Store) row(u core.UserID, d core.DomainID) (StoreEntry, int) {
	if i, ok := s.first[u]; ok {
		for ; i < len(s.rows) && s.rows[i].User == u; i++ {
			if s.rows[i].Domain == d {
				return s.rows[i], i
			}
		}
	}
	return StoreEntry{}, -1
}

// indexRows builds the user → first row map of rows, sized for users users.
func indexRows(rows []StoreEntry, users int) map[core.UserID]int {
	first := make(map[core.UserID]int, users)
	for i, r := range rows {
		if i == 0 || rows[i-1].User != r.User {
			first[r.User] = i
		}
	}
	return first
}

// readout converts accumulators to expertise under the store's prior.
func (s *Store) readout(n, den float64) float64 {
	if n <= 0 {
		return DefaultExpertise
	}
	return clamp(math.Sqrt((n+s.prior)/(den+s.prior)), MinExpertise, MaxExpertise)
}

// Expertise returns the current expertise of user u in domain d.
func (s *Store) Expertise(u core.UserID, d core.DomainID) float64 {
	r, _ := s.row(u, d)
	return s.readout(r.N, r.D)
}

// Contribution is one user's fresh evidence in one domain from the current
// time step: Count new observations with total squared normalized residual
// ResidualSq = Σ (x_ij − μ_j)²/σ_j².
type Contribution struct {
	User       core.UserID
	Domain     core.DomainID
	Count      float64
	ResidualSq float64
}

// Commit folds a batch of fresh contributions into the store, applying the
// decay factor to the historical accumulators first (Eq. 7–8). Every
// (user, domain) accumulator decays — including those without fresh
// evidence — so stale expertise gradually reverts toward the prior.
func (s *Store) Commit(batch []Contribution) {
	for i := range s.rows {
		s.rows[i].N *= s.alpha
		s.rows[i].D *= s.alpha
	}
	s.add(batch)
}

// add adds each contribution to its pair's accumulators, in batch order.
func (s *Store) add(batch []Contribution) {
	var fresh []StoreEntry // evidence for pairs the table does not hold yet
	for _, c := range batch {
		if _, i := s.row(c.User, c.Domain); i >= 0 {
			s.rows[i].N += c.Count
			s.rows[i].D += c.ResidualSq
		} else {
			fresh = append(fresh, StoreEntry{User: c.User, Domain: c.Domain, N: c.Count, D: c.ResidualSq})
		}
	}
	if len(fresh) == 0 {
		return
	}
	// Merge them in as one sorted run; the sort is stable, so a pair repeated
	// in the batch still adds up, from zero, in batch order.
	slices.SortStableFunc(fresh, compareKeys)
	merged, old := make([]StoreEntry, 0, len(s.rows)+len(fresh)), s.rows
	for _, f := range fresh {
		for len(old) > 0 && compareKeys(old[0], f) < 0 {
			merged, old = append(merged, old[0]), old[1:]
		}
		if n := len(merged); n == 0 || compareKeys(merged[n-1], f) != 0 {
			merged = append(merged, StoreEntry{User: f.User, Domain: f.Domain})
		}
		merged[len(merged)-1].N += f.N
		merged[len(merged)-1].D += f.D
	}
	s.rows = append(merged, old...)
	s.first = indexRows(s.rows, len(s.first))
}

// Clone copies the store: one copy of the table, the index shared. Closing a
// step, folding a domain merge and min-cost allocation each work on a clone:
// the store they started from, which readers and encoders hold, stays as is.
func (s *Store) Clone() *Store {
	out := *s
	out.rows = slices.Clone(s.rows)
	return &out
}

// Seen reports whether the store has committed any evidence for user u in
// domain d.
func (s *Store) Seen(u core.UserID, d core.DomainID) bool {
	return s.Evidence(u, d) > 0
}

// Evidence returns the (decayed) observation count N(u_i^k) backing the
// expertise of user u in domain d — how much the estimate can be trusted.
func (s *Store) Evidence(u core.UserID, d core.DomainID) float64 {
	r, _ := s.row(u, d)
	return r.N
}

// MergeDomains folds the accumulators of domain from into domain into for
// every user and deletes from, mirroring a clustering merge event.
func (s *Store) MergeDomains(into, from core.DomainID) {
	if into == from {
		return
	}
	// Take the from rows out, in place, and add them back as evidence for into.
	var moved []Contribution
	kept := s.rows[:0]
	for _, r := range s.rows {
		if r.Domain == from {
			moved = append(moved, Contribution{User: r.User, Domain: into, Count: r.N, ResidualSq: r.D})
		} else {
			kept = append(kept, r)
		}
	}
	if len(moved) > 0 {
		s.rows, s.first = kept, indexRows(kept, len(s.first))
		s.add(moved)
	}
}

// PreviewExpertise returns what the expertise of (u, d) would become if the
// given fresh evidence were committed now, without mutating the store. The
// dynamic-update iteration of Sec. 4.2 uses this to converge before
// committing.
func (s *Store) PreviewExpertise(u core.UserID, d core.DomainID, count, residualSq float64) float64 {
	r, _ := s.row(u, d)
	return s.readout(s.alpha*r.N+count, s.alpha*r.D+residualSq)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
