package loop

import (
	"eta2/internal/allocation"
	"eta2/internal/core"
	"eta2/internal/truth"
)

// Every stage takes domainOf, the per-task domain column: domainOf[t] is the
// domain of task t, and it reaches every task the stage is handed.

// AllocationInput builds the allocation problem of one step: u_ij is the
// store's expertise of user i in the domain of task j. The store is only
// read during a solve, so any parallelism is safe.
func AllocationInput(users []core.User, tasks []core.Task, store *truth.Store,
	domainOf []core.DomainID, epsilon float64, parallelism int) allocation.Input {
	return allocation.Input{
		Users: users,
		Tasks: tasks,
		Expertise: func(u core.UserID, t core.TaskID) float64 {
			return store.Expertise(u, domainOf[t])
		},
		Epsilon:     epsilon,
		Parallelism: parallelism,
	}
}

// MinCost runs Algorithm 2 (Sec. 5.2) with its estimate side: each
// iteration's newly allocated pairs go to collect, the observations that
// come back join the step's table, and the dynamic update re-estimates every
// task on a clone of store — which is never modified — yielding the σ̂_j and
// Σ u² the allocator evaluates the quality requirement with. collect is also
// where a caller records the batch (the server journals it there).
func MinCost(in allocation.Input, cfg allocation.MinCostConfig, store *truth.Store,
	domainOf []core.DomainID, truthCfg truth.Config,
	collect func([]core.Pair) ([]core.Observation, error)) (allocation.MinCostResult, error) {
	table := core.NewObservationTable(nil)
	responded := make(map[core.TaskID][]core.UserID)
	domainFn := func(id core.TaskID) core.DomainID { return domainOf[id] }
	return allocation.MinCost(in, cfg, allocation.EnvironmentFunc(func(pairs []core.Pair) (allocation.IterationOutcome, error) {
		obs, err := collect(pairs)
		if err != nil {
			return allocation.IterationOutcome{}, err
		}
		table.AddAll(obs)
		// Only users whose data arrived carry Fisher information: an
		// allocated-but-silent user must not count toward the confidence
		// interval.
		for _, o := range obs {
			responded[o.Task] = append(responded[o.Task], o.User)
		}
		tmp := store.Clone()
		upd, err := truth.UpdateStep(tmp, table, domainFn, truthCfg)
		if err != nil {
			return allocation.IterationOutcome{}, err
		}
		sums := make(map[core.TaskID]float64, len(responded))
		for tid, us := range responded {
			sums[tid] = truth.SumSquaredExpertise(us, domainOf[tid], tmp.Expertise)
		}
		return allocation.IterationOutcome{Sigma: upd.Sigma, SumSquaredExpertise: sums}, nil
	}))
}

// CloseStep estimates the truths of the step's observations and commits the
// step's expertise evidence into store: the joint MLE from uniform expertise
// on day 0 (Sec. 4.1), the dynamic update over the decayed accumulators on
// every later day (Sec. 4.2).
func CloseStep(day int, store *truth.Store, table *core.ObservationTable,
	domainOf []core.DomainID, cfg truth.Config) (truth.UpdateResult, error) {
	domainFn := func(id core.TaskID) core.DomainID { return domainOf[id] }
	if day == 0 {
		return truth.WarmUp(store, table, domainFn, cfg)
	}
	return truth.UpdateStep(store, table, domainFn, cfg)
}
