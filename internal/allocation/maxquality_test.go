package allocation

import (
	"math"
	"testing"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// randomInput builds a random allocation problem.
func randomInput(seed int64, nUsers, nTasks int) Input {
	rng := stats.NewRNG(seed)
	users := make([]core.User, nUsers)
	for i := range users {
		users[i] = core.User{ID: core.UserID(i), Capacity: rng.Uniform(2, 8)}
	}
	tasks := make([]core.Task, nTasks)
	for j := range tasks {
		tasks[j] = core.Task{ID: core.TaskID(j), ProcTime: rng.Uniform(0.5, 3), Cost: 1}
	}
	exp := make(map[core.Pair]float64)
	for i := range users {
		for j := range tasks {
			exp[core.Pair{User: users[i].ID, Task: tasks[j].ID}] = rng.Uniform(0.1, 3)
		}
	}
	return Input{
		Users: users,
		Tasks: tasks,
		Expertise: func(u core.UserID, t core.TaskID) float64 {
			return exp[core.Pair{User: u, Task: t}]
		},
		Epsilon: DefaultEpsilon,
	}
}

// objectiveOf recomputes Σ_j p_j for an allocation from scratch.
func objectiveOf(in Input, alloc *core.Allocation) float64 {
	pj := make(map[core.TaskID]float64)
	for _, p := range alloc.Pairs {
		pij := AccuracyProb(in.Epsilon, in.Expertise(p.User, p.Task))
		pj[p.Task] = 1 - (1-pj[p.Task])*(1-pij)
	}
	sum := 0.0
	for _, v := range pj {
		sum += v
	}
	return sum
}

func TestMaxQualityValidation(t *testing.T) {
	if _, err := MaxQuality(Input{}, MaxQualityOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	in := randomInput(1, 2, 2)
	in.Expertise = nil
	if _, err := MaxQuality(in, MaxQualityOptions{}); err == nil {
		t.Error("nil expertise accepted")
	}
	in = randomInput(1, 2, 2)
	in.Tasks[0].ProcTime = -1
	if _, err := MaxQuality(in, MaxQualityOptions{}); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestMaxQualityRespectsCapacityProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		in := randomInput(seed, 3+int(seed%5), 4+int(seed%7))
		res, err := MaxQuality(in, MaxQualityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		load := res.Allocation.Load(func(id core.TaskID) float64 {
			return in.Tasks[int(id)].ProcTime
		})
		for _, u := range in.Users {
			if load[u.ID] > u.Capacity+1e-9 {
				t.Fatalf("seed %d: user %d loaded %.2f over capacity %.2f", seed, u.ID, load[u.ID], u.Capacity)
			}
		}
		// No duplicate pairs.
		seen := map[core.Pair]bool{}
		for _, p := range res.Allocation.Pairs {
			if seen[p] {
				t.Fatalf("seed %d: duplicate pair %v", seed, p)
			}
			seen[p] = true
		}
		// Reported objective must match a from-scratch recomputation.
		if got := objectiveOf(in, res.Allocation); math.Abs(got-res.Objective) > 1e-9 {
			t.Fatalf("seed %d: reported objective %.6f != recomputed %.6f", seed, res.Objective, got)
		}
	}
}

// bruteForce enumerates every feasible allocation of a tiny instance and
// returns the best objective.
func bruteForce(in Input) float64 {
	type pairOpt struct{ u, t int }
	var opts []pairOpt
	for u := range in.Users {
		for tk := range in.Tasks {
			opts = append(opts, pairOpt{u, tk})
		}
	}
	best := 0.0
	n := len(opts)
	for mask := 0; mask < 1<<n; mask++ {
		load := make([]float64, len(in.Users))
		pj := make([]float64, len(in.Tasks))
		feasible := true
		for b := 0; b < n && feasible; b++ {
			if mask&(1<<b) == 0 {
				continue
			}
			o := opts[b]
			load[o.u] += in.Tasks[o.t].ProcTime
			if load[o.u] > in.Users[o.u].Capacity {
				feasible = false
			}
			pij := AccuracyProb(in.Epsilon, in.Expertise(in.Users[o.u].ID, in.Tasks[o.t].ID))
			pj[o.t] = 1 - (1-pj[o.t])*(1-pij)
		}
		if !feasible {
			continue
		}
		sum := 0.0
		for _, v := range pj {
			sum += v
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

func TestMaxQualityNearOptimalOnTinyInstances(t *testing.T) {
	// The paper guarantees a ½ approximation; on random tiny instances the
	// greedy is usually much closer. Verify the bound with slack and that
	// greedy never exceeds the optimum.
	for seed := int64(0); seed < 15; seed++ {
		in := randomInput(100+seed, 2, 4) // 8 candidate pairs → 256 subsets
		in.applyDefaults()
		opt := bruteForce(in)
		res, err := MaxQuality(in, MaxQualityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective > opt+1e-9 {
			t.Fatalf("seed %d: greedy %.6f exceeds optimum %.6f", seed, res.Objective, opt)
		}
		if res.Objective < 0.5*opt-1e-9 {
			t.Fatalf("seed %d: greedy %.6f below half the optimum %.6f", seed, res.Objective, opt)
		}
	}
}

func TestMaxQualitySecondPassWinsOnKnapsackInversion(t *testing.T) {
	// One user, capacity 10. A whole-capacity task with huge value vs
	// four small tasks with slightly higher efficiency but tiny value:
	// plain Algorithm 1 picks the small tasks, the second pass recovers
	// the big one.
	users := []core.User{{ID: 0, Capacity: 10}}
	tasks := []core.Task{
		{ID: 0, ProcTime: 10, Cost: 1},
		{ID: 1, ProcTime: 2, Cost: 1},
		{ID: 2, ProcTime: 2, Cost: 1},
		{ID: 3, ProcTime: 2, Cost: 1},
		{ID: 4, ProcTime: 2, Cost: 1},
	}
	exp := map[core.TaskID]float64{0: 2.6, 1: 0.26, 2: 0.26, 3: 0.26, 4: 0.26}
	in := Input{
		Users:     users,
		Tasks:     tasks,
		Expertise: func(_ core.UserID, t core.TaskID) float64 { return exp[t] },
		Epsilon:   1,
	}

	plain, err := MaxQuality(in, MaxQualityOptions{DisableSecondPass: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := MaxQuality(in, MaxQualityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Objective <= plain.Objective {
		t.Errorf("second pass did not help: full %.4f vs plain %.4f", full.Objective, plain.Objective)
	}
	if !full.UsedSecondPass {
		t.Error("UsedSecondPass not reported")
	}
	// The winning allocation must be the single big task.
	if len(full.Allocation.Pairs) != 1 || full.Allocation.Pairs[0].Task != 0 {
		t.Errorf("allocation = %v, want only the big task", full.Allocation.Pairs)
	}
}

func TestMaxQualityPrefersHighExpertise(t *testing.T) {
	// Two users, one task that only one of them can do well: the task
	// must go (first) to the expert.
	users := []core.User{{ID: 0, Capacity: 1}, {ID: 1, Capacity: 1}}
	tasks := []core.Task{{ID: 0, ProcTime: 1, Cost: 1}}
	in := Input{
		Users: users,
		Tasks: tasks,
		Expertise: func(u core.UserID, _ core.TaskID) float64 {
			if u == 1 {
				return 3
			}
			return 0.2
		},
	}
	res, err := MaxQuality(in, MaxQualityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Allocation.Pairs {
		if p.User == 1 && p.Task == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("expert not allocated: %v", res.Allocation.Pairs)
	}
}

func TestMaxQualityZeroCapacityUsers(t *testing.T) {
	in := Input{
		Users:     []core.User{{ID: 0, Capacity: 0}},
		Tasks:     []core.Task{{ID: 0, ProcTime: 1, Cost: 1}},
		Expertise: func(core.UserID, core.TaskID) float64 { return 2 },
	}
	res, err := MaxQuality(in, MaxQualityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation.Len() != 0 {
		t.Errorf("allocated %d pairs with zero capacity", res.Allocation.Len())
	}
}

func TestAccuracyProbMatchesEq11(t *testing.T) {
	// p_ij = Φ(ε·u) − Φ(−ε·u).
	eps, u := 0.1, 2.0
	want := stats.Phi(eps*u) - stats.Phi(-eps*u)
	if got := AccuracyProb(eps, u); math.Abs(got-want) > 1e-12 {
		t.Errorf("AccuracyProb = %g, want %g", got, want)
	}
}
