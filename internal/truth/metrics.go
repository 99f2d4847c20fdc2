package truth

import "eta2/internal/obs"

// Truth-analysis metrics. The `phase` label separates the warm-up joint
// MLE (Estimate, "batch") from the per-step dynamic update (UpdateStep,
// "incremental"); both run the Eq. 5–6 fixed point, so iteration counts
// share one family.
var (
	mEstimateDur = obs.Default().HistogramVec("eta2_truth_estimate_duration_seconds",
		"Wall time of one truth-analysis run (MLE fixed point to convergence).",
		obs.DefBuckets, obs.Label("phase", "batch", "incremental"))
	mIterations = obs.Default().Histogram("eta2_truth_mle_iterations",
		"Fixed-point iterations until the truth deltas fell below RelTol (or MaxIter).",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 200})
	mRuns = obs.Default().CounterVec("eta2_truth_runs_total",
		"Truth-analysis runs by phase and whether they converged before MaxIter.",
		obs.Label("phase", "batch", "incremental"), obs.Label("converged", "true", "false"))
	mTasks = obs.Default().Counter("eta2_truth_tasks_total",
		"Tasks whose truth was (re)estimated, summed over runs.")
	mObservations = obs.Default().Counter("eta2_truth_observations_total",
		"Observations fed into truth-analysis runs, summed over runs.")
)

// observeRun records one run's metrics under its phase.
func observeRun(phase string, timer obs.Timer, iterations, tasks, observations int, converged bool) {
	timer.ObserveTo(mEstimateDur.With(phase))
	mIterations.Observe(float64(iterations))
	mTasks.Add(uint64(tasks))
	mObservations.Add(uint64(observations))
	conv := "false"
	if converged {
		conv = "true"
	}
	mRuns.With(phase, conv).Inc()
}
