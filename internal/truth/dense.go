package truth

import (
	"math"

	"eta2/internal/core"
)

// estState is the dense working set of one estimation run: every per-task
// and per-(user, domain) quantity lives in a flat []float64 addressed by the
// small integer indices of a core.DenseIndex, and all buffers are allocated
// once and reused across the fixed-point iterations. The per-task truth
// update and the per-user expertise reduction both fan out over a
// core.ParallelFor worker pool; each index is owned by exactly one worker
// and per-worker partial results are merged in worker order, so results are
// bit-identical for every worker count (including the sequential path).
type estState struct {
	idx *core.DenseIndex

	nTasks, nUsers, nDoms int
	workers               int

	// Domain interning: dense task -> dense domain, dense domain -> ID.
	taskDom []int32
	domIDs  []core.DomainID
	// counted marks the tasks whose residuals are expertise evidence: a task
	// below the MinObsForExpertise floor never contributes to Eq. 6, and the
	// floor only depends on bucket sizes, which are fixed for the whole run.
	counted []bool

	mu    []float64 // per dense task
	sigma []float64 // per dense task

	// Flat per-(user, domain) matrices, slot = user*nDoms + domain.
	exp   []float64 // current expertise snapshot
	count []float64 // static Eq. 6 counts (MinObsForExpertise applied)
	resid []float64 // per-iteration squared normalized residual sums

	maxes []float64 // per-worker max-relative-change scratch
}

// newEstState builds the dense working set for the observations of idx:
// everything that follows from the index alone. domainOf is called exactly
// once per task. A non-nil known restricts the counted tasks to those it
// reports. mu, sigma and exp are left zero: seed sets the solver's starting
// point, Contributions fills in the estimates it was given.
func newEstState(idx *core.DenseIndex, domainOf func(core.TaskID) core.DomainID,
	known func(core.TaskID) bool, cfg Config) *estState {

	st := &estState{
		idx:     idx,
		nTasks:  idx.NumTasks(),
		nUsers:  idx.NumUsers(),
		workers: core.Workers(cfg.Parallelism),
	}

	// Intern domains once: the MLE only ever compares domains for equality.
	st.taskDom = make([]int32, st.nTasks)
	st.counted = make([]bool, st.nTasks)
	domIdx := make(map[core.DomainID]int32)
	for t := 0; t < st.nTasks; t++ {
		id := idx.TaskID(t)
		st.counted[t] = idx.TaskLen(t) >= cfg.MinObsForExpertise && (known == nil || known(id))
		d := domainOf(id)
		di, ok := domIdx[d]
		if !ok {
			di = int32(len(st.domIDs))
			domIdx[d] = di
			st.domIDs = append(st.domIDs, d)
		}
		st.taskDom[t] = di
	}
	st.nDoms = len(st.domIDs)

	st.mu = make([]float64, st.nTasks)
	st.sigma = make([]float64, st.nTasks)
	slots := st.nUsers * st.nDoms
	st.exp = make([]float64, slots)
	st.count = make([]float64, slots)
	st.resid = make([]float64, slots)
	for u := 0; u < st.nUsers; u++ {
		for _, e := range idx.UserObs(u) {
			if st.counted[e.Task] {
				st.count[u*st.nDoms+int(st.taskDom[e.Task])]++
			}
		}
	}

	st.maxes = make([]float64, st.workers)
	return st
}

// seed sets the fixed point's starting point: every truth at the mean of
// its observations, every base number at the floor, and the expertise of
// every (user, domain) pair present in the index at expOf.
func (st *estState) seed(expOf func(core.UserID, core.DomainID) float64, cfg Config) {
	for t := range st.mu {
		bucket := st.idx.TaskObs(t)
		sum := 0.0
		for _, o := range bucket {
			sum += o.Value
		}
		st.mu[t] = sum / float64(len(bucket))
		st.sigma[t] = cfg.MinSigma
	}
	for slot := range st.exp {
		st.exp[slot] = expOf(st.idx.UserID(slot/st.nDoms), st.domIDs[slot%st.nDoms])
	}
}

// updateTaskParams applies the Eq. 5 truth and base-number updates for every
// task, fanned out across the worker pool, and returns the maximum relative
// truth change. Each task is owned by exactly one worker and the per-worker
// maxima are merged after the barrier, so the result does not depend on the
// worker count.
func (st *estState) updateTaskParams(cfg Config) float64 {
	nd := st.nDoms
	for w := range st.maxes {
		st.maxes[w] = 0
	}
	core.ParallelFor(st.nTasks, st.workers, func(lo, hi, w int) {
		localMax := 0.0
		for t := lo; t < hi; t++ {
			dom := int(st.taskDom[t])
			bucket := st.idx.TaskObs(t)
			var wSum, wxSum float64
			for _, o := range bucket {
				u := st.exp[int(o.User)*nd+dom]
				wgt := u * u
				wSum += wgt
				wxSum += wgt * o.Value
			}
			// wgt = u² is non-negative, so <= covers the all-zero-weight
			// case without an exact float equality.
			if wSum <= 0 {
				continue
			}
			newMu := wxSum / wSum
			if rel := math.Abs(newMu-st.mu[t]) / (math.Abs(st.mu[t]) + cfg.AbsTol); rel > localMax {
				localMax = rel
			}
			st.mu[t] = newMu

			var ssq float64
			for _, o := range bucket {
				u := st.exp[int(o.User)*nd+dom]
				d := o.Value - newMu
				ssq += u * u * d * d
			}
			s := math.Sqrt(ssq / float64(len(bucket)))
			if s < cfg.MinSigma {
				s = cfg.MinSigma
			}
			st.sigma[t] = s
		}
		st.maxes[w] = localMax
	})
	m := 0.0
	for _, v := range st.maxes {
		if v > m {
			m = v
		}
	}
	return m
}

// accumulateResiduals recomputes the per-(user, domain) squared normalized
// residual sums from the current mu/sigma, fanned out across users. Each
// worker owns a contiguous block of users and therefore a contiguous block
// of resid rows — no two workers touch the same slot, and the within-slot
// accumulation order is the user's bucket order regardless of the worker
// count.
func (st *estState) accumulateResiduals() {
	nd := st.nDoms
	core.ParallelFor(st.nUsers, st.workers, func(lo, hi, _ int) {
		for u := lo; u < hi; u++ {
			row := st.resid[u*nd : (u+1)*nd]
			for i := range row {
				row[i] = 0
			}
			for _, e := range st.idx.UserObs(u) {
				t := int(e.Task)
				if !st.counted[t] {
					continue
				}
				d := e.Value - st.mu[t]
				s := st.sigma[t]
				row[st.taskDom[t]] += d * d / (s * s)
			}
		}
	})
}

// updateExpertise refreshes the residuals and recomputes every populated
// expertise slot from them by rule, overwriting st.exp in place.
func (st *estState) updateExpertise(rule refreshRule) {
	st.accumulateResiduals()
	core.ParallelFor(st.nUsers, st.workers, func(lo, hi, _ int) {
		for u := lo; u < hi; u++ {
			uid := st.idx.UserID(u)
			for d, dom := range st.domIDs {
				slot := u*st.nDoms + d
				if n := st.count[slot]; n > 0 {
					st.exp[slot] = rule(uid, dom, n, st.resid[slot])
				}
			}
		}
	})
}

// contributions materializes the populated slots as Contribution values:
// the fresh Eq. 7–8 evidence under the residuals last accumulated. Order is
// deterministic: users ascending, domains in interning order.
func (st *estState) contributions() []Contribution {
	out := make([]Contribution, 0, st.nUsers)
	for slot, n := range st.count {
		if n > 0 {
			out = append(out, Contribution{
				User:       st.idx.UserID(slot / st.nDoms),
				Domain:     st.domIDs[slot%st.nDoms],
				Count:      n,
				ResidualSq: st.resid[slot],
			})
		}
	}
	return out
}

// muMap exports the dense truth estimates as the public map form.
func (st *estState) muMap() map[core.TaskID]float64 {
	out := make(map[core.TaskID]float64, st.nTasks)
	for t := 0; t < st.nTasks; t++ {
		out[st.idx.TaskID(t)] = st.mu[t]
	}
	return out
}

// sigmaMap exports the dense base-number estimates as the public map form.
func (st *estState) sigmaMap() map[core.TaskID]float64 {
	out := make(map[core.TaskID]float64, st.nTasks)
	for t := 0; t < st.nTasks; t++ {
		out[st.idx.TaskID(t)] = st.sigma[t]
	}
	return out
}
