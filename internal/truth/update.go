package truth

import "eta2/internal/core"

// UpdateResult is the outcome of one dynamic expertise/truth update step.
type UpdateResult struct {
	// Mu and Sigma are the estimates for the tasks covered by the new
	// observations.
	Mu    map[core.TaskID]float64
	Sigma map[core.TaskID]float64
	// Iterations is the number of outer fixed-point iterations performed.
	Iterations int
	// Converged reports whether the truth estimates stabilized within
	// RelTol before MaxIter.
	Converged bool
}

// UpdateStep performs the dynamic update of Sec. 4.2 for one time step:
// given the persistent expertise Store and the observations collected for
// the step's (new) tasks, it alternates
//
//  1. estimate μ_j, σ_j of the new tasks from the candidate expertise
//     (Eq. 5),
//  2. recompute the candidate expertise from the decayed accumulators plus
//     the fresh residuals (Eq. 7–9),
//
// until the truth estimates converge, then commits the fresh evidence into
// the store. The candidate expertise starts at the store's current values
// (the paper initializes the iteration with the time-T expertise). The
// returned estimates cover exactly the tasks present in obs.
func UpdateStep(store *Store, obs *core.ObservationTable, domainOf func(core.TaskID) core.DomainID, cfg Config) (UpdateResult, error) {
	cfg.applyDefaults()
	st, res, err := solve("incremental", obs, domainOf, store.Expertise, store.PreviewExpertise, cfg)
	if err == nil {
		store.Commit(st.contributions())
	}
	return res, err
}

// WarmUp is the first step's close (Sec. 4.1): the joint MLE of Estimate
// from uniform expertise, whose final evidence — what Contributions would
// recompute from the returned estimates — is committed into the store.
func WarmUp(store *Store, obs *core.ObservationTable, domainOf func(core.TaskID) core.DomainID, cfg Config) (UpdateResult, error) {
	cfg.applyDefaults()
	st, res, err := solve("batch", obs, domainOf, Expertise(nil).Get, batchRule(cfg), cfg)
	if err == nil {
		store.Commit(st.contributions())
	}
	return res, err
}
