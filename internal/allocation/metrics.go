package allocation

import "eta2/internal/obs"

// Allocation metrics. The `algorithm` label distinguishes the two
// solvers; the expected-quality gauge carries the objective value
// Σ_j q_j of the most recent max-quality round.
var (
	mAllocDur = obs.Default().HistogramVec("eta2_allocation_duration_seconds",
		"Wall time of one allocation solve (greedy passes included).",
		obs.DefBuckets, obs.Label("algorithm", "max_quality", "min_cost"))
	mAllocPairs = obs.Default().CounterVec("eta2_allocation_allocated_pairs_total",
		"User-task pairs allocated, summed over rounds.", obs.Label("algorithm", "max_quality", "min_cost"))
	mAllocQuality = obs.Default().Gauge("eta2_allocation_expected_quality",
		"Objective sum of per-task accuracy probabilities of the last max-quality round.")
	mMinCostIters = obs.Default().Histogram("eta2_allocation_mincost_iterations",
		"Allocate-collect-evaluate rounds per min-cost solve.",
		obs.ExpBuckets(1, 2, 8))

	mMaxQualityDur   = mAllocDur.With("max_quality")
	mMinCostDur      = mAllocDur.With("min_cost")
	mMaxQualityPairs = mAllocPairs.With("max_quality")
	mMinCostPairs    = mAllocPairs.With("min_cost")
)
