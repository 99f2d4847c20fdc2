package simulation

import (
	"fmt"
	"math"

	"eta2/internal/allocation"
	"eta2/internal/baselines"
	"eta2/internal/core"
	"eta2/internal/dataset"
	"eta2/internal/loop"
	"eta2/internal/semantic"
	"eta2/internal/stats"
	"eta2/internal/truth"
)

// Run simulates cfg.Days time steps of the crowdsourcing server over the
// dataset and returns the collected metrics. Tasks are distributed evenly
// across days in a seed-determined random order; day 0 is the warm-up
// period with random allocation (Fig. 1 of the paper).
func Run(ds *dataset.Dataset, cfg Config) (RunResult, error) {
	cfg.applyDefaults()
	if err := ds.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("simulation: %w", err)
	}
	if !ds.DomainsKnown && cfg.Embedder == nil {
		return RunResult{}, ErrNeedEmbedder
	}

	rng := stats.NewRNG(cfg.Seed)
	days := partitionTasks(ds.Tasks, cfg.Days, rng)

	switch cfg.Method {
	case MethodETA2, MethodETA2MC:
		return runETA2(ds, cfg, days, rng)
	case MethodHubsAuthorities:
		return runBaseline(ds, cfg, days, rng, &baselines.HubsAuthorities{})
	case MethodAverageLog:
		return runBaseline(ds, cfg, days, rng, &baselines.AverageLog{})
	case MethodTruthFinder:
		return runBaseline(ds, cfg, days, rng, &baselines.TruthFinder{})
	case MethodBaseline:
		return runBaseline(ds, cfg, days, rng, baselines.Mean{})
	default:
		return RunResult{}, fmt.Errorf("simulation: unknown method %v", cfg.Method)
	}
}

// partitionTasks splits the tasks evenly across days in random order and
// stamps each task's Day field.
func partitionTasks(tasks []core.Task, days int, rng *stats.RNG) [][]core.Task {
	order := rng.Perm(len(tasks))
	out := make([][]core.Task, days)
	for i, idx := range order {
		d := i * days / len(order)
		t := tasks[idx]
		t.Day = d
		out[d] = append(out[d], t)
	}
	return out
}

// eta2State bundles the persistent server state of an ETA² simulation: what
// the stage bodies of internal/loop read and write between days.
type eta2State struct {
	ds       *dataset.Dataset
	cfg      Config
	rng      *stats.RNG
	store    *truth.Store
	domainOf []core.DomainID // indexed by task id, which is the task's index in ds.Tasks
	domains  *loop.Domains   // textual datasets only
}

// runETA2 simulates ETA² (max-quality) or ETA²-mc (min-cost).
func runETA2(ds *dataset.Dataset, cfg Config, days [][]core.Task, rng *stats.RNG) (RunResult, error) {
	st := &eta2State{
		ds:       ds,
		cfg:      cfg,
		rng:      rng,
		store:    truth.NewStore(cfg.Alpha),
		domainOf: make([]core.DomainID, len(ds.Tasks)),
	}
	if ds.DomainsKnown {
		for _, t := range ds.Tasks {
			st.domainOf[t.ID] = t.Domain
		}
	} else {
		var err error
		if st.domains, err = loop.NewDomains(cfg.Embedder, cfg.Gamma); err != nil {
			return RunResult{}, fmt.Errorf("simulation: %w", err)
		}
	}

	res := RunResult{
		Method:                cfg.Method,
		UsersPerTask:          make(map[core.TaskID]int),
		AvgAllocatedExpertise: make(map[core.TaskID]float64),
		ExpertiseError:        math.NaN(),
	}

	for day, tasks := range days {
		if len(tasks) == 0 {
			res.Days = append(res.Days, DayMetrics{Day: day})
			continue
		}
		if err := st.identifyDomains(tasks); err != nil {
			return RunResult{}, err
		}

		// Allocate.
		var pairs []core.Pair
		var dayObs []core.Observation
		var dayCost float64
		switch {
		case day == 0:
			alloc := baselines.Random(ds.Users, tasks, rng)
			pairs = alloc.Pairs
			dayObs = ds.ObservePairs(pairs, cfg.Observation, day, rng)
			dayCost = alloc.Cost(st.costOf)
		case cfg.Method == MethodETA2:
			mq, err := allocation.MaxQuality(st.allocationInput(tasks), allocation.MaxQualityOptions{})
			if err != nil {
				return RunResult{}, fmt.Errorf("simulation: day %d: %w", day, err)
			}
			pairs = mq.Allocation.Pairs
			recordAllocation(&res, st, pairs)
			dayObs = ds.ObservePairs(pairs, cfg.Observation, day, rng)
			dayCost = mq.Allocation.Cost(st.costOf)
		default: // MethodETA2MC
			var err error
			pairs, dayObs, dayCost, err = st.runMinCostDay(tasks, day)
			if err != nil {
				return RunResult{}, fmt.Errorf("simulation: day %d: %w", day, err)
			}
			recordAllocation(&res, st, pairs)
		}

		// Estimate truth and update expertise.
		table := core.NewObservationTable(dayObs)
		var mu map[core.TaskID]float64
		if table.Len() > 0 {
			closed, err := loop.CloseStep(day, st.store, table, st.domainOf, cfg.Truth)
			if err != nil {
				return RunResult{}, fmt.Errorf("simulation: day %d close: %w", day, err)
			}
			mu = closed.Mu
			res.MLEIterations = append(res.MLEIterations, closed.Iterations)
		}

		if cfg.KeepObservations {
			res.Observations = append(res.Observations, dayObs...)
		}
		res.TotalCost += dayCost
		res.Days = append(res.Days, DayMetrics{
			Day:      day,
			NumTasks: len(tasks),
			Error:    meanDayError(tasks, mu),
			Cost:     dayCost,
			Pairs:    len(pairs),
		})
		res.overallErrs = append(res.overallErrs, taskErrors(tasks, mu)...)
	}

	res.OverallError = stats.Mean(res.overallErrs)
	res.EstimatedExpertiseOf = func(u core.UserID, t core.TaskID) float64 {
		return st.store.Expertise(u, st.domainOf[t])
	}
	if ds.DomainsKnown {
		res.ExpertiseError = expertiseError(st.store, ds)
	}
	return res, nil
}

// identifyDomains assigns expertise domains to the day's tasks: directly
// for pre-known datasets, by dynamic hierarchical clustering otherwise.
// Cluster merges are propagated into the expertise store (Sec. 4.2).
func (st *eta2State) identifyDomains(tasks []core.Task) error {
	if st.ds.DomainsKnown {
		return nil
	}
	ids := make([]core.TaskID, len(tasks))
	vectors := make([]semantic.TaskVector, len(tasks))
	for i, t := range tasks {
		var err error
		if vectors[i], err = st.domains.Vectorize(t.Description); err != nil {
			return fmt.Errorf("simulation: vectorize task %d: %w", t.ID, err)
		}
		ids[i] = t.ID
	}
	if _, err := st.domains.Identify(ids, vectors, st.domainOf, st.store.MergeDomains); err != nil {
		return fmt.Errorf("simulation: clustering: %w", err)
	}
	return nil
}

// allocationInput builds the allocation problem for the day's tasks with
// expertise read from the store.
func (st *eta2State) allocationInput(tasks []core.Task) allocation.Input {
	return loop.AllocationInput(st.ds.Users, tasks, st.store, st.domainOf, st.cfg.Epsilon, 0)
}

func (st *eta2State) costOf(id core.TaskID) float64 { return st.ds.Tasks[int(id)].Cost }

// runMinCostDay executes Algorithm 2 for one day: iterative allocation with
// per-iteration budget, probabilistic quality evaluation against the
// confidence interval, and observation collection along the way.
func (st *eta2State) runMinCostDay(tasks []core.Task, day int) ([]core.Pair, []core.Observation, float64, error) {
	var dayObs []core.Observation
	mc, err := loop.MinCost(st.allocationInput(tasks), allocation.MinCostConfig{
		EpsBar:     st.cfg.EpsBar,
		Alpha:      st.cfg.ConfAlpha,
		IterBudget: st.cfg.IterBudget,
	}, st.store, st.domainOf, st.cfg.Truth, func(pairs []core.Pair) ([]core.Observation, error) {
		obs := st.ds.ObservePairs(pairs, st.cfg.Observation, day, st.rng)
		dayObs = append(dayObs, obs...)
		return obs, nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return mc.Allocation.Pairs, dayObs, mc.Cost, nil
}

// recordAllocation accumulates Table 2 statistics: users per task and the
// mean estimated expertise of the allocated users at allocation time.
func recordAllocation(res *RunResult, st *eta2State, pairs []core.Pair) {
	sums := make(map[core.TaskID]float64)
	counts := make(map[core.TaskID]int)
	for _, p := range pairs {
		sums[p.Task] += st.store.Expertise(p.User, st.domainOf[p.Task])
		counts[p.Task]++
	}
	for tid, n := range counts {
		res.UsersPerTask[tid] += n
		res.AvgAllocatedExpertise[tid] = sums[tid] / float64(n)
	}
}

// expertiseError computes the mean absolute error between the estimated and
// generator expertise of a domains-known dataset (Fig. 11), over the
// (user, domain) pairs the server actually has evidence for — pairs never
// observed stay at the prior and say nothing about estimation quality.
// Pairs never observed stay at the prior and are skipped. Note the
// identifiability caveat documented in DESIGN.md: the model's likelihood is
// invariant to jointly scaling a domain's expertise and its tasks' base
// numbers, so absolute expertise is anchored only by the u = 1 prior; the
// error reported here is dominated by that scale ambiguity, not by noise.
func expertiseError(store *truth.Store, ds *dataset.Dataset) float64 {
	var errs []float64
	for u := range ds.Users {
		for d := 0; d < ds.NumDomains; d++ {
			uid, did := core.UserID(u), core.DomainID(d+1)
			if !store.Seen(uid, did) {
				continue
			}
			errs = append(errs, math.Abs(store.Expertise(uid, did)-ds.TrueExpertise[u][d]))
		}
	}
	if len(errs) == 0 {
		return math.NaN()
	}
	return stats.Mean(errs)
}

// runBaseline simulates one of the comparison approaches: random allocation
// on day 0 (and always for the mean baseline), reliability-greedy
// afterwards; truth re-estimated each day over all data collected so far.
func runBaseline(ds *dataset.Dataset, cfg Config, days [][]core.Task, rng *stats.RNG, method baselines.Method) (RunResult, error) {
	res := RunResult{
		Method:                cfg.Method,
		UsersPerTask:          make(map[core.TaskID]int),
		AvgAllocatedExpertise: make(map[core.TaskID]float64),
		ExpertiseError:        math.NaN(),
	}
	cumTable := core.NewObservationTable(nil)
	var reliability map[core.UserID]float64

	for day, tasks := range days {
		if len(tasks) == 0 {
			res.Days = append(res.Days, DayMetrics{Day: day})
			continue
		}
		var alloc *core.Allocation
		if day == 0 || cfg.Method == MethodBaseline || len(reliability) == 0 {
			alloc = baselines.Random(ds.Users, tasks, rng)
		} else {
			alloc = baselines.ReliabilityGreedy(ds.Users, tasks, reliability)
		}
		for _, p := range alloc.Pairs {
			res.UsersPerTask[p.Task]++
		}
		obs := ds.ObservePairs(alloc.Pairs, cfg.Observation, day, rng)
		cumTable.AddAll(obs)
		if cfg.KeepObservations {
			res.Observations = append(res.Observations, obs...)
		}

		est, err := method.Estimate(cumTable)
		if err != nil {
			return RunResult{}, fmt.Errorf("simulation: %s day %d: %w", method.Name(), day, err)
		}
		reliability = est.Reliability
		res.MLEIterations = append(res.MLEIterations, est.Iterations)

		cost := alloc.Cost(func(id core.TaskID) float64 { return ds.Tasks[int(id)].Cost })
		res.TotalCost += cost
		res.Days = append(res.Days, DayMetrics{
			Day:      day,
			NumTasks: len(tasks),
			Error:    meanDayError(tasks, est.Truth),
			Cost:     cost,
			Pairs:    len(alloc.Pairs),
		})
		res.overallErrs = append(res.overallErrs, taskErrors(tasks, est.Truth)...)
	}
	res.OverallError = stats.Mean(res.overallErrs)
	return res, nil
}
