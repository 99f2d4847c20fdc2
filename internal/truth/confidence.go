package truth

import (
	"math"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// CIHalfWidth returns the half-width of the 1−alpha confidence interval for
// the MLE truth estimator of a task (Eq. 24 of the paper):
//
//	z_{α/2} · σ_j / √(Σ_i s_ij · (u_i^{d_j})²)
//
// sumU2 is Σ_i s_ij·u_ij² over the users allocated to the task. A zero or
// negative sumU2 yields +Inf: no information, no confidence.
func CIHalfWidth(sigma, sumU2, alpha float64) float64 {
	if sumU2 <= 0 {
		return math.Inf(1)
	}
	return stats.ZAlphaOver2(alpha) * sigma / math.Sqrt(sumU2)
}

// SumSquaredExpertise computes Σ_i s_ij·(u_i^{d_j})² for one task from the
// set of users currently allocated to it; expertise looks up u_i^d
// (Store.Expertise, Expertise.Get).
func SumSquaredExpertise(users []core.UserID, dom core.DomainID, expertise func(core.UserID, core.DomainID) float64) float64 {
	s := 0.0
	for _, u := range users {
		e := expertise(u, dom)
		s += e * e
	}
	return s
}
