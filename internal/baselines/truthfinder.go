package baselines

import (
	"maps"
	"math"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// TruthFinder implements the iterative scheme of Yin et al. ([4] in the
// paper) adapted to numeric data: the confidence of a data item is the
// probability it is accurate — computed from the trustworthiness of the
// sources providing similar values, combined as "at least one such source
// is right" — and a source's trustworthiness is the average confidence of
// its items.
type TruthFinder struct {
	// MaxIter caps the refinement iterations (default 50).
	MaxIter int
	// Tol terminates iteration when trustworthiness changes less than this
	// (default 1e-4).
	Tol float64
	// Dampening attenuates the trustworthiness mass contributed by
	// similar-valued sources (the γ·ρ factor of the original paper);
	// default 0.3.
	Dampening float64
}

var _ Method = (*TruthFinder)(nil)

// Name implements Method.
func (*TruthFinder) Name() string { return "TruthFinder" }

// Estimate implements Method.
func (t *TruthFinder) Estimate(obs *core.ObservationTable) (Result, error) {
	if obs == nil || obs.Len() == 0 {
		return Result{}, ErrNoData
	}
	maxIter, tol, damp := t.MaxIter, t.Tol, t.Dampening
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	if tol <= 0 {
		tol = defaultTol
	}
	if damp <= 0 {
		damp = 0.3
	}

	scales := taskScales(obs)
	users := obs.Users()
	tasks := obs.Tasks()

	// Trustworthiness t_i starts at 0.9 as in the original paper.
	trust := make(map[core.UserID]float64, len(users))
	for _, uid := range users {
		trust[uid] = 0.9
	}

	conf := make(map[core.Pair]float64, obs.Len())
	iterations := 0
	for iterations = 1; iterations <= maxIter; iterations++ {
		// Item confidence: combine the trustworthiness scores τ = −ln(1−t)
		// of sources providing similar values; the probability that at
		// least one is right is 1 − e^(−Σ τ·sim).
		for _, tid := range tasks {
			taskObs := obs.ForTask(tid)
			scale := scales[tid]
			for _, o := range taskObs {
				score := 0.0
				for _, o2 := range taskObs {
					tau := -math.Log(1 - clampProb(trust[o2.User]))
					sim := kernel(o.Value, o2.Value, scale)
					if o2.User != o.User {
						sim *= damp
					}
					score += tau * sim
				}
				conf[core.Pair{User: o.User, Task: o.Task}] = 1 - math.Exp(-score)
			}
		}

		// Source trustworthiness: average confidence of its items.
		next := make(map[core.UserID]float64, len(users))
		for _, uid := range users {
			userObs := obs.ForUser(uid)
			if len(userObs) == 0 {
				next[uid] = 0
				continue
			}
			s := 0.0
			for _, o := range userObs {
				s += conf[core.Pair{User: uid, Task: o.Task}]
			}
			next[uid] = s / float64(len(userObs))
		}

		delta := maxAbsDelta(next, trust)
		trust = next
		if delta < tol {
			break
		}
	}
	if iterations > maxIter {
		iterations = maxIter
	}

	// Truth per task: confidence-weighted mean of the observed values.
	truthEst := make(map[core.TaskID]float64, len(tasks))
	for _, tid := range tasks {
		var num, den float64
		for _, o := range obs.ForTask(tid) {
			w := conf[core.Pair{User: o.User, Task: o.Task}]
			num += w * o.Value
			den += w
		}
		if den > 0 {
			truthEst[tid] = num / den
		} else {
			truthEst[tid] = stats.Mean(obs.Values(tid))
		}
	}

	rel := maps.Clone(trust)
	normalizeMax(rel)

	return Result{
		Truth:       truthEst,
		Reliability: rel,
		Iterations:  iterations,
	}, nil
}

// clampProb keeps trustworthiness strictly inside (0, 1) so −ln(1−t) stays
// finite.
func clampProb(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
