package allocation

import (
	"errors"
	"fmt"
	"math"
	"time"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// MinCostConfig tunes the iterative min-cost allocator.
type MinCostConfig struct {
	// EpsBar is the maximum normalized estimation error ε̄ the collected
	// data must achieve (the paper uses 0.5).
	EpsBar float64
	// Alpha is the complement of the required confidence: quality must hold
	// with probability 1−Alpha (the paper uses 0.05 for 95%).
	Alpha float64
	// IterBudget is c°, the maximum allocation cost spent per iteration.
	IterBudget float64
}

// maxIterations caps Algorithm 2's outer loop as a safety net.
const maxIterations = 100

func (c *MinCostConfig) applyDefaults() {
	if c.EpsBar <= 0 {
		c.EpsBar = 0.5
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.05
	}
}

// IterationOutcome is what the environment reports back after one
// allocation round: the data collected from the newly recruited users and
// the refreshed estimates computed from ALL data so far (the paper's
// Algorithm 2 re-estimates truth from every collected observation each
// iteration).
type IterationOutcome struct {
	// Sigma is the estimated base number σ̂_j per task.
	Sigma map[core.TaskID]float64
	// SumSquaredExpertise is Σ_i s_ij·(u_i^{d_j})² per task over every user
	// allocated so far, computed with the post-estimation expertise.
	SumSquaredExpertise map[core.TaskID]float64
}

// Environment abstracts the data-collection and truth-estimation side of
// Algorithm 2 so the allocator stays independent of the simulation and the
// truth package. Collect is called once per iteration with the newly
// allocated pairs; it must gather their observations, fold them into the
// running estimate, and report the per-task quantities the confidence test
// needs.
type Environment interface {
	Collect(newPairs []core.Pair) (IterationOutcome, error)
}

// EnvironmentFunc adapts a function to the Environment interface.
type EnvironmentFunc func(newPairs []core.Pair) (IterationOutcome, error)

// Collect implements Environment.
func (f EnvironmentFunc) Collect(newPairs []core.Pair) (IterationOutcome, error) {
	return f(newPairs)
}

// MinCostResult is the outcome of a full min-cost allocation.
type MinCostResult struct {
	Allocation *core.Allocation
	// Cost is the total recruiting cost Σ s_ij·c_j.
	Cost float64
	// Iterations is the number of allocate–collect–evaluate rounds run.
	Iterations int
	// Unsatisfied lists tasks whose quality requirement could not be met
	// before capacity ran out; empty when every task passed.
	Unsatisfied []core.TaskID
}

// ErrNoEnvironment is returned when MinCost is called without an
// Environment.
var ErrNoEnvironment = errors.New("allocation: min-cost requires an environment")

// MinCost solves the min-cost task allocation problem (Sec. 5.2,
// Algorithm 2): it repeatedly allocates at most c° worth of user-task pairs
// with the greedy of Algorithm 1, collects their data through env, and
// stops as soon as every task's 1−α confidence interval fits within
// ±ε̄·σ̂_j — or when no further allocation is possible.
//
// Tasks whose requirement is already met are excluded from later
// iterations: recruiting more users for them could only add cost, against
// the problem's objective.
func MinCost(in Input, cfg MinCostConfig, env Environment) (MinCostResult, error) {
	in.applyDefaults()
	cfg.applyDefaults()
	if err := in.Validate(); err != nil {
		return MinCostResult{}, err
	}
	if env == nil {
		return MinCostResult{}, ErrNoEnvironment
	}
	start := time.Now()

	// Expertise is constant within the round: one matrix, one set of
	// candidate orders and one ledger serve every iteration.
	pr := newProblem(in)
	state := pr.newLedger()
	exclude := make([]bool, len(in.Tasks))
	res := MinCostResult{}
	for res.Iterations < maxIterations {
		res.Iterations++
		newPairs, cost := pr.runGreedy(state, greedyOptions{
			costLimit: cfg.IterBudget,
			exclude:   exclude,
		})
		res.Cost += cost
		if len(newPairs) == 0 {
			break // capacity or candidates exhausted
		}

		outcome, err := env.Collect(newPairs)
		if err != nil {
			return MinCostResult{}, fmt.Errorf("allocation: min-cost iteration %d: %w", res.Iterations, err)
		}

		allPass := true
		for ti, t := range in.Tasks {
			if exclude[ti] {
				continue
			}
			if QualityMetForTask(outcome, t.ID, cfg.EpsBar, cfg.Alpha) {
				exclude[ti] = true
			} else {
				allPass = false
			}
		}
		if allPass {
			break
		}
	}

	res.Allocation = state.allocation()
	for ti, t := range in.Tasks {
		if !exclude[ti] { // empty when every task passed
			res.Unsatisfied = append(res.Unsatisfied, t.ID)
		}
	}
	mMinCostDur.Observe(time.Since(start).Seconds())
	mMinCostPairs.Add(uint64(res.Allocation.Len()))
	mMinCostIters.Observe(float64(res.Iterations))
	return res, nil
}

// QualityMetForTask evaluates the confidence-interval condition of Eq. 24
// for one task from an iteration outcome: the 1−α CI half-width
// z_{α/2}·σ̂/√(Σ u²) must not exceed ε̄·σ̂, which reduces to
// √(Σ u²) ≥ z_{α/2}/ε̄ (σ̂ cancels, so missing σ̂ entries are harmless).
func QualityMetForTask(out IterationOutcome, id core.TaskID, epsBar, alpha float64) bool {
	sumU2, ok := out.SumSquaredExpertise[id]
	if !ok {
		return false
	}
	return qualityMet(sumU2, epsBar, alpha)
}

// qualityMet is the σ̂-cancelled form of the Eq. 24 confidence condition.
func qualityMet(sumU2, epsBar, alpha float64) bool {
	if epsBar <= 0 {
		return false
	}
	return sumU2 > 0 && math.Sqrt(sumU2) >= stats.ZAlphaOver2(alpha)/epsBar
}
