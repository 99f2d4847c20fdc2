package allocation

import (
	"time"

	"eta2/internal/core"
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
	in.applyDefaults()
	if err := in.Validate(); err != nil {
		return MaxQualityResult{}, err
	}
	start := time.Now()

	// Both greedy passes run over one p_ij matrix, each on a fresh ledger;
	// the pass of higher objective wins, the efficiency pass on a draw.
	pr := newProblem(in)
	best := pr.newLedger()
	pr.runGreedy(best, greedyOptions{})
	res := MaxQualityResult{Objective: best.objective()}
	if !opts.DisableSecondPass {
		val := pr.newLedger()
		pr.runGreedy(val, greedyOptions{ignoreSize: true})
		if obj := val.objective(); obj > res.Objective {
			best, res = val, MaxQualityResult{Objective: obj, UsedSecondPass: true}
		}
	}
	res.Allocation = best.allocation()
	mMaxQualityDur.Observe(time.Since(start).Seconds())
	mMaxQualityPairs.Add(uint64(res.Allocation.Len()))
	mAllocQuality.Set(res.Objective)
	return res, nil
}
