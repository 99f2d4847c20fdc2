package truth

import "eta2/internal/core"

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
