package allocation

import (
	"errors"
	"testing"

	"eta2/internal/core"
)

// fakeEnv simulates the collect/estimate side with a fixed per-user
// expertise: every collected pair contributes u² information immediately.
type fakeEnv struct {
	expertise  func(core.UserID, core.TaskID) float64
	sums       map[core.TaskID]float64
	iterations int
	perIterMax int // record the largest single-iteration batch
}

func (f *fakeEnv) Collect(newPairs []core.Pair) (IterationOutcome, error) {
	f.iterations++
	if len(newPairs) > f.perIterMax {
		f.perIterMax = len(newPairs)
	}
	if f.sums == nil {
		f.sums = make(map[core.TaskID]float64)
	}
	sigma := make(map[core.TaskID]float64)
	for _, p := range newPairs {
		u := f.expertise(p.User, p.Task)
		f.sums[p.Task] += u * u
		sigma[p.Task] = 1
	}
	out := IterationOutcome{Sigma: sigma, SumSquaredExpertise: make(map[core.TaskID]float64, len(f.sums))}
	for t, s := range f.sums {
		out.SumSquaredExpertise[t] = s
	}
	return out, nil
}

func minCostInput(nUsers, nTasks int, capacity float64, expertise float64) Input {
	users := make([]core.User, nUsers)
	for i := range users {
		users[i] = core.User{ID: core.UserID(i), Capacity: capacity}
	}
	tasks := make([]core.Task, nTasks)
	for j := range tasks {
		tasks[j] = core.Task{ID: core.TaskID(j), ProcTime: 1, Cost: 1}
	}
	return Input{
		Users:     users,
		Tasks:     tasks,
		Expertise: func(core.UserID, core.TaskID) float64 { return expertise },
	}
}

func TestMinCostNilEnvironment(t *testing.T) {
	if _, err := MinCost(minCostInput(2, 2, 4, 1), MinCostConfig{}, nil); !errors.Is(err, ErrNoEnvironment) {
		t.Errorf("got %v, want ErrNoEnvironment", err)
	}
}

func TestMinCostStopsAtQuality(t *testing.T) {
	// u = 2 → u² = 4 per recruit; quality needs Σu² ≥ (1.96/0.5)² ≈ 15.4
	// → 4 users per task. With 20 users × capacity 10, capacity is ample:
	// min-cost must recruit ~4 per task, not everyone.
	// c° = 5 → one recruit per task per iteration, so the quality check
	// runs between recruits and each task stops at exactly 4.
	in := minCostInput(20, 5, 10, 2)
	env := &fakeEnv{expertise: in.Expertise}
	res, err := MinCost(in, MinCostConfig{EpsBar: 0.5, Alpha: 0.05, IterBudget: 5}, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unsatisfied) != 0 {
		t.Fatalf("unsatisfied tasks: %v", res.Unsatisfied)
	}
	perTask := res.Allocation.UsersByTask()
	for tid, us := range perTask {
		if len(us) != 4 {
			t.Errorf("task %d got %d users, want exactly 4", tid, len(us))
		}
	}
	if res.Cost != 20 {
		t.Errorf("cost = %g, want 20 (5 tasks × 4 users)", res.Cost)
	}
}

func TestMinCostLargeBudgetOverRecruits(t *testing.T) {
	// The paper's own caveat: a too-high c° front-loads the allocation
	// before any quality feedback, inflating cost. Verify the mechanism.
	small := &fakeEnv{expertise: func(core.UserID, core.TaskID) float64 { return 2 }}
	in := minCostInput(20, 5, 10, 2)
	resSmall, err := MinCost(in, MinCostConfig{EpsBar: 0.5, Alpha: 0.05, IterBudget: 5}, small)
	if err != nil {
		t.Fatal(err)
	}
	big := &fakeEnv{expertise: in.Expertise}
	resBig, err := MinCost(in, MinCostConfig{EpsBar: 0.5, Alpha: 0.05, IterBudget: 1000}, big)
	if err != nil {
		t.Fatal(err)
	}
	if resBig.Cost <= resSmall.Cost {
		t.Errorf("huge budget cost %.0f should exceed small budget cost %.0f", resBig.Cost, resSmall.Cost)
	}
}

func TestMinCostRespectsIterationBudget(t *testing.T) {
	in := minCostInput(20, 5, 10, 2)
	env := &fakeEnv{expertise: in.Expertise}
	res, err := MinCost(in, MinCostConfig{EpsBar: 0.5, Alpha: 0.05, IterBudget: 3}, env)
	if err != nil {
		t.Fatal(err)
	}
	if env.perIterMax > 3 {
		t.Errorf("an iteration allocated %d pairs, budget 3 (unit costs)", env.perIterMax)
	}
	if res.Iterations < 2 {
		t.Errorf("budget 3 should force multiple iterations, got %d", res.Iterations)
	}
}

func TestMinCostCapacityExhaustion(t *testing.T) {
	// 2 users × capacity 2 = 4 pair-hours total; quality needs 4 users
	// per task (u=2) for 3 tasks = 12. Must terminate with unsatisfied
	// tasks rather than loop.
	in := minCostInput(2, 3, 2, 2)
	env := &fakeEnv{expertise: in.Expertise}
	res, err := MinCost(in, MinCostConfig{EpsBar: 0.5, Alpha: 0.05, IterBudget: 100}, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unsatisfied) == 0 {
		t.Error("expected unsatisfied tasks under exhausted capacity")
	}
	load := res.Allocation.Load(func(core.TaskID) float64 { return 1 })
	for _, u := range in.Users {
		if load[u.ID] > u.Capacity+1e-9 {
			t.Errorf("user %d over capacity", u.ID)
		}
	}
}

func TestMinCostExcludesSatisfiedTasks(t *testing.T) {
	// One task reaches quality on iteration 1 (expert users); verify no
	// further pairs are added for it later.
	nUsers := 10
	users := make([]core.User, nUsers)
	for i := range users {
		users[i] = core.User{ID: core.UserID(i), Capacity: 10}
	}
	tasks := []core.Task{
		{ID: 0, ProcTime: 1, Cost: 1},
		{ID: 1, ProcTime: 1, Cost: 1},
	}
	in := Input{
		Users: users,
		Tasks: tasks,
		Expertise: func(u core.UserID, tid core.TaskID) float64 {
			if tid == 0 {
				return 4 // one expert recruit meets Σu² = 16 ≥ 15.4
			}
			return 1.3 // task 1 needs ~10 recruits
		},
	}
	// Track per-iteration recruits so we can assert nothing is added to a
	// task after the iteration in which it met quality.
	inner := &fakeEnv{expertise: in.Expertise}
	passedAt := -1
	var violated bool
	iter := 0
	env := EnvironmentFunc(func(newPairs []core.Pair) (IterationOutcome, error) {
		iter++
		if passedAt >= 0 {
			for _, p := range newPairs {
				if p.Task == 0 {
					violated = true
				}
			}
		}
		out, err := inner.Collect(newPairs)
		if err != nil {
			return out, err
		}
		if passedAt < 0 && QualityMetForTask(out, 0, 0.5, 0.05) {
			passedAt = iter
		}
		return out, nil
	})
	res, err := MinCost(in, MinCostConfig{EpsBar: 0.5, Alpha: 0.05, IterBudget: 4}, env)
	if err != nil {
		t.Fatal(err)
	}
	if passedAt < 0 {
		t.Fatal("task 0 never met quality")
	}
	if violated {
		t.Error("task 0 received recruits after meeting its quality requirement")
	}
	perTask := res.Allocation.UsersByTask()
	if len(perTask[1]) < 5 {
		t.Errorf("task 1 under-recruited: %d users", len(perTask[1]))
	}
}

func TestMinCostEnvironmentError(t *testing.T) {
	in := minCostInput(4, 2, 4, 2)
	boom := errors.New("device offline")
	env := EnvironmentFunc(func([]core.Pair) (IterationOutcome, error) {
		return IterationOutcome{}, boom
	})
	if _, err := MinCost(in, MinCostConfig{}, env); !errors.Is(err, boom) {
		t.Errorf("environment error not propagated: %v", err)
	}
}

func TestMinCostCheaperThanMaxQuality(t *testing.T) {
	// The whole point of ETA²-mc: same instance, quality met, lower cost
	// than max-quality's capacity-filling allocation.
	in := minCostInput(20, 5, 10, 2)
	env := &fakeEnv{expertise: in.Expertise}
	mc, err := MinCost(in, MinCostConfig{EpsBar: 0.5, Alpha: 0.05, IterBudget: 5}, env)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := MaxQuality(in, MaxQualityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mqCost := float64(mq.Allocation.Len())
	if mc.Cost >= mqCost {
		t.Errorf("min-cost %.0f not below max-quality %.0f", mc.Cost, mqCost)
	}
}

func TestQualityMetForTask(t *testing.T) {
	out := IterationOutcome{SumSquaredExpertise: map[core.TaskID]float64{1: 16, 2: 1}}
	if !QualityMetForTask(out, 1, 0.5, 0.05) {
		t.Error("task 1 with Σu²=16 should pass")
	}
	if QualityMetForTask(out, 2, 0.5, 0.05) {
		t.Error("task 2 with Σu²=1 should fail")
	}
	if QualityMetForTask(out, 99, 0.5, 0.05) {
		t.Error("unknown task should fail")
	}
}

func TestQualityMetForTaskThreshold(t *testing.T) {
	// The threshold: √(Σu²) >= z/ε̄ = 1.96/0.5 = 3.92 → Σu² >= 15.37.
	out := IterationOutcome{SumSquaredExpertise: map[core.TaskID]float64{1: 15.0, 2: 15.5, 3: 100, 4: 0}}
	if QualityMetForTask(out, 1, 0.5, 0.05) {
		t.Error("15.0 should not meet the bound")
	}
	if !QualityMetForTask(out, 2, 0.5, 0.05) {
		t.Error("15.5 should meet the bound")
	}
	if QualityMetForTask(out, 3, 0, 0.05) {
		t.Error("zero eps-bar can never be met")
	}
	if QualityMetForTask(out, 4, 0.5, 0.05) {
		t.Error("zero information can never meet the bound")
	}
}
