package allocation

import (
	"errors"
	"time"

	"eta2/internal/core"
	"eta2/internal/obs"
)

// MaxQualityOptions tunes MaxQuality.
type MaxQualityOptions struct {
	// DisableSecondPass skips the size-agnostic second greedy and the
	// best-of-two selection, yielding plain Algorithm 1. Exposed for the
	// ablation benchmark; production callers should leave it false, as the
	// paper notes plain greedy "can perform arbitrarily poorly" when task
	// processing times differ a lot.
	DisableSecondPass bool
}

// MaxQualityResult is the outcome of a max-quality allocation round.
type MaxQualityResult struct {
	Allocation *core.Allocation
	// Objective is Σ_j p_j achieved by the returned allocation.
	Objective float64
	// UsedSecondPass reports whether the size-agnostic greedy won the
	// best-of-two comparison.
	UsedSecondPass bool
}

// MaxQuality solves the max-quality task allocation problem (Sec. 5.1):
// maximize Σ_j [1 − Π_i (1 − p_ij)^{s_ij}] subject to per-user capacity.
// It runs Algorithm 1 (efficiency greedy) and the size-agnostic greedy of
// Sec. 5.1.2, then returns whichever allocation achieves the higher
// objective, which guarantees a ½ approximation ratio.
func MaxQuality(in Input, opts MaxQualityOptions) (MaxQualityResult, error) {
	return bestOfTwo(in, 0, opts, mMaxQualityDur, mMaxQualityPairs)
}

// MaxQualityBudgeted solves the budget-capped variant of the max-quality
// problem: maximize Σ_j p_j subject to per-user capacities AND a total
// recruiting budget Σ s_ij·c_j ≤ budget. This is the allocation a server
// with a fixed per-step payroll runs — a middle ground between the paper's
// two problems (max-quality ignores cost entirely; min-cost needs feedback
// rounds). Both greedy passes respect the budget and the better allocation
// wins, preserving the best-of-two structure.
func MaxQualityBudgeted(in Input, budget float64, opts MaxQualityOptions) (MaxQualityResult, error) {
	if budget <= 0 {
		return MaxQualityResult{}, errors.New("allocation: budget must be positive")
	}
	return bestOfTwo(in, budget, opts, mMaxQualityBudgetedDur, mMaxQualityBudgetedP)
}

// bestOfTwo runs both greedy passes over one p_ij matrix, each on a fresh
// ledger and each stopping at costLimit (0 = none), and keeps the pass of
// higher objective; the efficiency pass wins a draw.
func bestOfTwo(in Input, costLimit float64, opts MaxQualityOptions, dur *obs.Histogram, pairs *obs.Counter) (MaxQualityResult, error) {
	in.applyDefaults()
	if err := in.Validate(); err != nil {
		return MaxQualityResult{}, err
	}
	start := time.Now()

	pr := newProblem(in)
	best := pr.newLedger()
	pr.runGreedy(best, greedyOptions{costLimit: costLimit})
	res := MaxQualityResult{Objective: best.objective()}
	if !opts.DisableSecondPass {
		val := pr.newLedger()
		pr.runGreedy(val, greedyOptions{ignoreSize: true, costLimit: costLimit})
		if obj := val.objective(); obj > res.Objective {
			best, res = val, MaxQualityResult{Objective: obj, UsedSecondPass: true}
		}
	}
	res.Allocation = best.allocation()
	dur.Observe(time.Since(start).Seconds())
	pairs.Add(uint64(res.Allocation.Len()))
	mAllocQuality.Set(res.Objective)
	return res, nil
}
