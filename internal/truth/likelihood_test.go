package truth

import (
	"math"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// LogLikelihood evaluates the paper's Eq. 4 log-likelihood of the
// observations under the given parameters:
//
//	Σ_ij ω_ij [ log(u_ij/(σ_j·√2π)) − u_ij²(x_ij−μ_j)²/(2σ_j²) ]
//
// It is the oracle TestLogLikelihoodImprovesWithFit holds the MLE to: fitted
// parameters must explain the data better than the initialization.
// Observations whose task has no μ/σ entry are skipped.
func LogLikelihood(obs *core.ObservationTable, domainOf func(core.TaskID) core.DomainID,
	mu, sigma map[core.TaskID]float64, exp Expertise) float64 {

	if obs == nil {
		return 0
	}
	const log2pi = 1.8378770664093453 // log(2π)
	total := 0.0
	for _, tid := range obs.Tasks() {
		m, ok := mu[tid]
		if !ok {
			continue
		}
		s := sigma[tid]
		if s <= 0 {
			continue
		}
		dom := domainOf(tid)
		for _, o := range obs.ForTask(tid) {
			u := exp.Get(o.User, dom)
			if u <= 0 {
				continue
			}
			d := o.Value - m
			total += math.Log(u) - math.Log(s) - 0.5*log2pi - u*u*d*d/(2*s*s)
		}
	}
	return total
}

// UniformParams builds the "no knowledge" parameter set the MLE starts
// from — per-task plain means, per-task unweighted standard deviations,
// and all-ones expertise — for likelihood comparisons.
func UniformParams(obs *core.ObservationTable) (mu, sigma map[core.TaskID]float64, exp Expertise) {
	mu = make(map[core.TaskID]float64)
	sigma = make(map[core.TaskID]float64)
	exp = make(Expertise)
	if obs == nil {
		return mu, sigma, exp
	}
	for _, tid := range obs.Tasks() {
		vals := obs.Values(tid)
		m := stats.Mean(vals)
		mu[tid] = m
		var ssq float64
		for _, v := range vals {
			d := v - m
			ssq += d * d
		}
		s := math.Sqrt(ssq / float64(len(vals)))
		if s <= 0 {
			s = 1e-9
		}
		sigma[tid] = s
	}
	return mu, sigma, exp
}
