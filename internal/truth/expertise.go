// Package truth implements ETA²'s expertise-aware truth analysis (Sec. 4 of
// the paper): a statistical model in which user i's observation of task j is
// N(μ_j, (σ_j/u_i^{d_j})²), jointly estimated by maximum likelihood; a
// persistent expertise store updated across time steps with a decay factor;
// and the MLE asymptotic-normality confidence interval used by min-cost
// allocation.
package truth

import (
	"maps"
	"math"
	"sort"

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

// Users returns the user IDs present in the snapshot, sorted.
func (e Expertise) Users() []core.UserID {
	out := make([]core.UserID, 0, len(e))
	for u := range e { //eta2:nondeterministic-ok collect-then-sort: the sort below fixes the order
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// accumulator holds the decayed numerator N(u_i^k) and denominator D(u_i^k)
// of Eq. 7–8: N counts observations, D sums squared normalized residuals.
type accumulator struct {
	N float64
	D float64
}

// DefaultPriorStrength is the pseudo-count of the shrinkage prior applied
// when converting accumulators to expertise (see Config.PriorStrength).
const DefaultPriorStrength = 2.0

func (a accumulator) expertise(prior, clampLo, clampHi float64) float64 {
	if a.N <= 0 {
		return DefaultExpertise
	}
	return clamp(math.Sqrt((a.N+prior)/(a.D+prior)), clampLo, clampHi)
}

// Store is the persistent expertise state of the server. It survives across
// time steps; each step's freshly estimated residuals are folded in with the
// decay factor α (Eq. 7–9), and clustering-driven domain merges are applied
// with MergeDomains.
type Store struct {
	alpha   float64
	prior   float64
	acc     map[core.UserID]map[core.DomainID]accumulator
	clampLo float64
	clampHi float64
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
	return &Store{
		alpha:   clamp(alpha, 0, 1),
		prior:   DefaultStorePrior,
		acc:     make(map[core.UserID]map[core.DomainID]accumulator),
		clampLo: MinExpertise,
		clampHi: MaxExpertise,
	}
}

// SetPrior overrides the readout pseudo-count (default DefaultStorePrior).
func (s *Store) SetPrior(prior float64) {
	if prior >= 0 {
		s.prior = prior
	}
}

// Expertise clamping bounds. u→0 makes observation variance diverge and
// u→∞ makes a single user dominate every estimate; both break the MLE
// fixed-point iteration, so learned expertise is kept within these bounds.
const (
	MinExpertise = 0.05
	MaxExpertise = 20.0
)

// Alpha returns the store's decay factor.
func (s *Store) Alpha() float64 { return s.alpha }

// Expertise returns the current expertise of user u in domain d.
func (s *Store) Expertise(u core.UserID, d core.DomainID) float64 {
	if m, ok := s.acc[u]; ok {
		if a, ok := m[d]; ok {
			return a.expertise(s.prior, s.clampLo, s.clampHi)
		}
	}
	return DefaultExpertise
}

// Snapshot materializes the store as an Expertise map.
func (s *Store) Snapshot() Expertise {
	out := make(Expertise, len(s.acc))
	for u, m := range s.acc { //eta2:nondeterministic-ok independent per-key write into the output map: order-independent
		for d, a := range m { //eta2:nondeterministic-ok independent per-key write into the output map: order-independent
			out.Set(u, d, a.expertise(s.prior, s.clampLo, s.clampHi))
		}
	}
	return out
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
	if s.alpha != 1 { //eta2:floatcmp-ok exact sentinel: alpha is set from config once, 1 means decay disabled
		for _, m := range s.acc { //eta2:nondeterministic-ok independent per-key scale, no cross-key accumulation: order-independent
			for d, a := range m { //eta2:nondeterministic-ok independent per-key scale, no cross-key accumulation: order-independent
				m[d] = accumulator{N: s.alpha * a.N, D: s.alpha * a.D}
			}
		}
	}
	for _, c := range batch {
		m, ok := s.acc[c.User]
		if !ok {
			m = make(map[core.DomainID]accumulator)
			s.acc[c.User] = m
		}
		a := m[c.Domain]
		a.N += c.Count
		a.D += c.ResidualSq
		m[c.Domain] = a
	}
}

// Clone deep-copies the store, including its accumulators. Min-cost
// allocation uses clones to evaluate candidate estimates without mutating
// the server's committed expertise state.
func (s *Store) Clone() *Store {
	out := &Store{
		alpha:   s.alpha,
		prior:   s.prior,
		acc:     make(map[core.UserID]map[core.DomainID]accumulator, len(s.acc)),
		clampLo: s.clampLo,
		clampHi: s.clampHi,
	}
	for u, m := range s.acc { //eta2:nondeterministic-ok map-to-map copy, independent per-key write: order-independent
		out.acc[u] = maps.Clone(m)
	}
	return out
}

// Seen reports whether the store has committed any evidence for user u in
// domain d.
func (s *Store) Seen(u core.UserID, d core.DomainID) bool {
	return s.Evidence(u, d) > 0
}

// Evidence returns the (decayed) observation count N(u_i^k) backing the
// expertise of user u in domain d — how much the estimate can be trusted.
func (s *Store) Evidence(u core.UserID, d core.DomainID) float64 {
	if m, ok := s.acc[u]; ok {
		return m[d].N
	}
	return 0
}

// MergeDomains folds the accumulators of domain from into domain into for
// every user and deletes from, mirroring a clustering merge event.
func (s *Store) MergeDomains(into, from core.DomainID) {
	if into == from {
		return
	}
	for _, m := range s.acc { //eta2:nondeterministic-ok each user's fold touches only that user's map entries: order-independent
		if a, ok := m[from]; ok {
			t := m[into]
			t.N += a.N
			t.D += a.D
			m[into] = t
			delete(m, from)
		}
	}
}

// PreviewExpertise returns what the expertise of (u, d) would become if the
// given fresh evidence were committed now, without mutating the store. The
// dynamic-update iteration of Sec. 4.2 uses this to converge before
// committing.
func (s *Store) PreviewExpertise(u core.UserID, d core.DomainID, count, residualSq float64) float64 {
	var a accumulator
	if m, ok := s.acc[u]; ok {
		a = m[d]
	}
	a = accumulator{N: s.alpha*a.N + count, D: s.alpha*a.D + residualSq}
	return a.expertise(s.prior, s.clampLo, s.clampHi)
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
