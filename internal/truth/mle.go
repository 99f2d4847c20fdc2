package truth

import (
	"errors"
	"math"

	"eta2/internal/core"
	"eta2/internal/obs"
)

// Config tunes the MLE fixed-point iteration.
type Config struct {
	// RelTol is the per-task relative change of the truth estimate below
	// which the iteration is considered converged (the paper uses 5%).
	RelTol float64
	// AbsTol is an absolute change floor so truths near zero can converge.
	AbsTol float64
	// MaxIter caps the number of fixed-point iterations.
	MaxIter int
	// MinSigma floors the base-number estimate to keep residual
	// normalization finite for (near-)degenerate tasks.
	MinSigma float64
	// MinObsForExpertise is the minimum number of observations a task needs
	// before its residuals contribute to expertise estimates. A task with a
	// single observation always has residual 0 against its own MLE truth,
	// which would spuriously inflate the observer's expertise.
	MinObsForExpertise int
	// PriorStrength is the pseudo-count a of the shrinkage prior applied to
	// the expertise update: û² = (n + a)/(Σres² + a), pulling estimates
	// toward the paper's initialization u = 1. The raw Eq. 6 update
	// (a = 0) is a degenerate MLE — the jointly estimated per-task σ̂ lets
	// the best user of each domain absorb all weight, sending its û → ∞
	// and everyone else's → 0 (the incidental-parameters problem). A small
	// prior keeps the fixed point calibrated; see DESIGN.md. Default 2.
	PriorStrength float64
	// Parallelism is the number of workers the per-task truth update and
	// the per-(user, domain) expertise reduction fan out over. Zero means
	// one worker per available CPU (runtime.GOMAXPROCS); 1 runs the exact
	// sequential path with no goroutines. Results are bit-identical for
	// every value — see the determinism contract in DESIGN.md.
	Parallelism int
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: 5% convergence tolerance.
func DefaultConfig() Config {
	return Config{
		RelTol:             0.05,
		AbsTol:             1e-6,
		MaxIter:            200,
		MinSigma:           1e-6,
		MinObsForExpertise: 2,
		PriorStrength:      DefaultPriorStrength,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.RelTol <= 0 {
		c.RelTol = d.RelTol
	}
	if c.AbsTol <= 0 {
		c.AbsTol = d.AbsTol
	}
	if c.MaxIter <= 0 {
		c.MaxIter = d.MaxIter
	}
	if c.MinSigma <= 0 {
		c.MinSigma = d.MinSigma
	}
	if c.MinObsForExpertise <= 0 {
		c.MinObsForExpertise = d.MinObsForExpertise
	}
	if c.PriorStrength <= 0 {
		c.PriorStrength = d.PriorStrength
	}
}

// Result is the outcome of a joint MLE estimation.
type Result struct {
	// Mu is the estimated truth μ̂_j per task.
	Mu map[core.TaskID]float64
	// Sigma is the estimated base number σ̂_j per task.
	Sigma map[core.TaskID]float64
	// Expertise is the estimated per-user per-domain expertise.
	Expertise Expertise
	// Iterations is the number of fixed-point iterations performed.
	Iterations int
	// Converged reports whether RelTol was met before MaxIter.
	Converged bool
}

// ErrNoObservations is returned when estimation is attempted with no data.
var ErrNoObservations = errors.New("truth: no observations to estimate from")

// Estimate runs the joint MLE of Sec. 4.1 over all observations in obs:
// starting from expertise init (nil ⇒ all ones), it alternates
//
//	μ_j  = Σ_i ω_ij·u_ij²·x_ij / Σ_i ω_ij·u_ij²          (Eq. 5)
//	σ_j² = Σ_i ω_ij·u_ij²·(x_ij−μ_j)² / Σ_i ω_ij          (Eq. 5)
//	u_ik = √( Σ_j I(d_j=k)·ω_ij / Σ_j I(d_j=k)·ω_ij·(x_ij−μ_j)²/σ_j² )  (Eq. 6)
//
// until the truth estimates all change less than RelTol, and returns the
// final parameters. domainOf maps each task to its expertise domain; tasks
// mapped to core.DomainNone share one implicit domain.
func Estimate(obs *core.ObservationTable, domainOf func(core.TaskID) core.DomainID, init Expertise, cfg Config) (Result, error) {
	cfg.applyDefaults()
	st, res, err := solve("batch", obs, domainOf, init.Get, batchRule(cfg), cfg)
	if err != nil {
		return Result{}, err
	}
	exp := init.Clone()
	for slot, n := range st.count {
		if n > 0 {
			exp.Set(st.idx.UserID(slot/st.nDoms), st.domIDs[slot%st.nDoms], st.exp[slot])
		}
	}
	return Result{Mu: res.Mu, Sigma: res.Sigma, Expertise: exp, Iterations: res.Iterations, Converged: res.Converged}, nil
}

// refreshRule maps the fresh evidence of one (user, domain) pair — Count
// and ResidualSq of Eq. 7–8 under the current truth estimates — to the
// pair's next candidate expertise. It is the only thing the warm-up MLE and
// the dynamic update disagree on, and must be safe for concurrent calls.
type refreshRule func(u core.UserID, d core.DomainID, count, residualSq float64) float64

// batchRule is Eq. 6 with the shrinkage prior: the evidence stands alone.
func batchRule(cfg Config) refreshRule {
	a := cfg.PriorStrength
	return func(_ core.UserID, _ core.DomainID, n, resid float64) float64 {
		return clamp(math.Sqrt((n+a)/(resid+a)), MinExpertise, MaxExpertise)
	}
}

// solve is the fixed-point iteration behind Estimate, WarmUp and UpdateStep:
// from expertise expOf it alternates the Eq. 5 truth and base-number update
// with rule's expertise refresh until the truths move less than RelTol. The
// returned state holds the final residuals, so its contributions are the
// fresh evidence under the returned estimates. cfg has its defaults applied.
func solve(phase string, table *core.ObservationTable, domainOf func(core.TaskID) core.DomainID,
	expOf func(core.UserID, core.DomainID) float64, rule refreshRule, cfg Config) (*estState, UpdateResult, error) {
	if table == nil || table.Len() == 0 {
		return nil, UpdateResult{}, ErrNoObservations
	}
	timer := obs.StartTimer()

	// Dense re-index once: the O(#obs · #iterations) inner loops then run on
	// contiguous buckets and flat parameter slices (see dense.go).
	st := newEstState(core.NewDenseIndex(table), domainOf, nil, cfg)
	st.seed(expOf, cfg)
	res := UpdateResult{Iterations: cfg.MaxIter}
	for it := 1; it <= cfg.MaxIter; it++ {
		maxChange := st.updateTaskParams(cfg)
		st.updateExpertise(rule)
		if maxChange < cfg.RelTol && it > 1 {
			res.Iterations, res.Converged = it, true
			break
		}
	}
	res.Mu, res.Sigma = st.muMap(), st.sigmaMap()
	observeRun(phase, timer, res.Iterations, st.nTasks, table.Len(), res.Converged)
	return st, res, nil
}

// Contributions extracts the per-(user, domain) fresh-evidence terms of
// Eq. 7–8 from a set of observations given the estimated truths: Count is
// Σ I(d_j=k)·ω_ij and ResidualSq is Σ I(d_j=k)·ω_ij·(x_ij−μ_j)²/σ_j².
// Tasks with fewer than cfg.MinObsForExpertise observations, and tasks mu
// does not cover, are skipped.
func Contributions(obs *core.ObservationTable, domainOf func(core.TaskID) core.DomainID,
	mu, sigma map[core.TaskID]float64, cfg Config) []Contribution {
	cfg.applyDefaults()
	if obs == nil || obs.Len() == 0 {
		return nil
	}
	known := func(id core.TaskID) bool { _, ok := mu[id]; return ok }
	st := newEstState(core.NewDenseIndex(obs), domainOf, known, cfg)
	for t := range st.mu {
		id := st.idx.TaskID(t)
		st.mu[t], st.sigma[t] = mu[id], math.Max(sigma[id], cfg.MinSigma)
	}
	st.accumulateResiduals()
	return st.contributions()
}
