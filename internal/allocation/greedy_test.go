package allocation

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// refLedger is the reference's ledger: the same slices by index, plus the
// explicit assigned set the cursors stand in for.
type refLedger struct {
	remCap, pj []float64
	assigned   map[[2]int]bool
}

// refGreedy is Algorithm 1 with nothing clever. Every step scans every
// pair and takes the first feasible one under the total order (efficiency
// descending, task index ascending, p_ij descending, user index
// ascending), stopping at the first selection costLimit cannot afford. It
// returns the selection sequence as (user index, task index) and its cost.
func refGreedy(in Input, l *refLedger, opts greedyOptions) (seq [][2]int, cost float64) {
	for {
		bu, bt, bestEff, bestP := -1, -1, 0.0, 0.0
		for ti, t := range in.Tasks {
			if opts.exclude != nil && opts.exclude[ti] {
				continue
			}
			for ui, u := range in.Users {
				p := AccuracyProb(in.Epsilon, in.Expertise(u.ID, t.ID))
				if !(p > 0) || l.assigned[[2]int{ui, ti}] || l.remCap[ui] < t.ProcTime {
					continue
				}
				eff := p * (1 - l.pj[ti])
				if !opts.ignoreSize {
					eff = eff / t.ProcTime
				}
				if eff > bestEff || (eff == bestEff && bt == ti && p > bestP) {
					bu, bt, bestEff, bestP = ui, ti, eff, p
				}
			}
		}
		if bu < 0 || (opts.costLimit > 0 && cost+in.Tasks[bt].Cost > opts.costLimit) {
			return seq, cost
		}
		l.remCap[bu] -= in.Tasks[bt].ProcTime
		l.pj[bt] = 1 - (1-l.pj[bt])*(1-bestP)
		l.assigned[[2]int{bu, bt}] = true
		seq = append(seq, [2]int{bu, bt})
		cost += in.Tasks[bt].Cost
	}
}

// propertyInput draws a small problem whose shape depends on the seed:
// tie-free expertise, all-default expertise, per-domain expertise (equal
// columns, a third of them default), duplicated expertise rows, or a few
// coarse values including 0, negative and NaN; equal or varied proc times;
// zero-capacity users; ids that are not the indices.
func propertyInput(seed int64) Input {
	rng := stats.NewRNG(1000 + seed)
	nU, nT := 1+rng.Intn(12), 1+rng.Intn(14)
	users := make([]core.User, nU)
	for i, id := range rng.Perm(nU) {
		users[i] = core.User{ID: core.UserID(3 + 2*id), Capacity: rng.Uniform(0, 6)}
		if rng.Intn(4) == 0 {
			users[i].Capacity = 0
		}
	}
	tasks := make([]core.Task, nT)
	for j, id := range rng.Perm(nT) {
		tasks[j] = core.Task{ID: core.TaskID(50 + id), ProcTime: 1, Cost: float64(1 + rng.Intn(3))}
		if seed/5%2 == 1 {
			tasks[j].ProcTime = rng.Uniform(0.5, 3)
		}
	}
	coarse := []float64{0, -1, 0.5, 1, 1, 2, math.NaN()}
	exp := make(map[core.Pair]float64, nU*nT)
	for i, u := range users {
		for j, t := range tasks {
			var v float64
			switch seed % 5 {
			case 0:
				v = rng.Uniform(0.1, 3)
			case 1:
				v = 1
			case 2: // three domains; a (user, domain) is default or a function of both
				if d := j % 3; (i+d)%3 == 0 {
					v = 1
				} else {
					v = 0.3 + float64((7*i+5*d)%11)/3
				}
			case 3: // users i and i+3 report the same row
				v = 0.2 + float64((3*(i%3)+j)%7)/2
			case 4:
				v = coarse[rng.Intn(len(coarse))]
			}
			exp[core.Pair{User: u.ID, Task: t.ID}] = v
		}
	}
	return Input{
		Users:     users,
		Tasks:     tasks,
		Expertise: func(u core.UserID, t core.TaskID) float64 { return exp[core.Pair{User: u, Task: t}] },
		Epsilon:   DefaultEpsilon,
	}
}

// TestGreedyMatchesReference defines the selection order: on every
// instance, two consecutive runs on one ledger (so the second starts from a
// pre-assigned ledger, as a min-cost iteration does) must select the
// reference's pairs in the reference's sequence and leave the same ledger,
// bit for bit.
func TestGreedyMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		in := propertyInput(seed)
		rng := stats.NewRNG(seed)
		first := greedyOptions{ignoreSize: seed/10%2 == 1, costLimit: float64(1 + rng.Intn(6))}
		second := greedyOptions{ignoreSize: first.ignoreSize}
		if seed/20%2 == 1 {
			second.costLimit = float64(2 + rng.Intn(8))
		}
		if seed/40%2 == 1 {
			second.exclude = make([]bool, len(in.Tasks))
			for ti := range second.exclude {
				second.exclude[ti] = rng.Intn(3) == 0
			}
		}

		pr := newProblem(in)
		got := pr.newLedger()
		want := &refLedger{remCap: slices.Clone(got.remCap), pj: make([]float64, len(in.Tasks)), assigned: map[[2]int]bool{}}
		var all []core.Pair
		for run, opts := range []greedyOptions{first, second} {
			pairs, cost := pr.runGreedy(got, opts)
			seq, refCost := refGreedy(in, want, opts)
			var refPairs []core.Pair
			for _, s := range seq {
				refPairs = append(refPairs, core.Pair{User: in.Users[s[0]].ID, Task: in.Tasks[s[1]].ID})
			}
			if !slices.Equal(pairs, refPairs) || cost != refCost {
				t.Fatalf("seed %d run %d (%+v): selected %v at cost %v, reference %v at cost %v", seed, run, opts, pairs, cost, refPairs, refCost)
			}
			all = append(all, refPairs...)
		}
		bits := func(xs []float64) []uint64 {
			out := make([]uint64, len(xs))
			for i, x := range xs {
				out[i] = math.Float64bits(x)
			}
			return out
		}
		if !slices.Equal(bits(got.pj), bits(want.pj)) || !slices.Equal(bits(got.remCap), bits(want.remCap)) {
			t.Fatalf("seed %d: ledger p_j %v capacity %v, reference %v %v", seed, got.pj, got.remCap, want.pj, want.remCap)
		}
		refObj := 0.0
		for _, p := range want.pj {
			refObj += p
		}
		if math.Float64bits(got.objective()) != math.Float64bits(refObj) {
			t.Fatalf("seed %d: objective %v, reference %v", seed, got.objective(), refObj)
		}
		slices.SortFunc(all, func(a, b core.Pair) int {
			if a.User != b.User {
				return int(a.User - b.User)
			}
			return int(a.Task - b.Task)
		})
		if !slices.Equal(got.allocation().Pairs, all) {
			t.Fatalf("seed %d: allocation %v, reference %v", seed, got.allocation().Pairs, all)
		}
	}
}

// TestExpertiseEvaluatedOncePerPair pins one p_ij sweep per solve, however
// many passes or iterations the solver makes over it.
func TestExpertiseEvaluatedOncePerPair(t *testing.T) {
	in := randomInput(3, 30, 40)
	want := int64(len(in.Users) * len(in.Tasks))
	var calls atomic.Int64
	inner := in.Expertise
	in.Expertise = func(u core.UserID, t core.TaskID) float64 {
		calls.Add(1)
		return inner(u, t)
	}
	check := func(name string) {
		t.Helper()
		if got := calls.Swap(0); got != want {
			t.Errorf("%s: %d Expertise calls, want %d", name, got, want)
		}
	}
	for _, opts := range []MaxQualityOptions{{}, {DisableSecondPass: true}} {
		if _, err := MaxQuality(in, opts); err != nil {
			t.Fatal(err)
		}
		check("MaxQuality")
	}
	for _, budget := range []float64{5, 40} {
		env := &fakeEnv{expertise: inner}
		res, err := MinCost(in, MinCostConfig{IterBudget: budget}, env)
		if err != nil {
			t.Fatal(err)
		}
		if budget == 5 && res.Iterations < 3 {
			t.Fatalf("min-cost ran %d iterations; the test needs several", res.Iterations)
		}
		check("MinCost")
	}
}

func TestValidateRejectsDuplicateIDs(t *testing.T) {
	in := randomInput(1, 3, 3)
	in.Users[2].ID = in.Users[0].ID
	if _, err := MaxQuality(in, MaxQualityOptions{}); err == nil || !strings.Contains(err.Error(), "duplicate user id 0") {
		t.Errorf("duplicate user id: got %v", err)
	}
	in = randomInput(1, 3, 3)
	in.Tasks[1].ID = in.Tasks[2].ID
	if _, err := MinCost(in, MinCostConfig{}, &fakeEnv{expertise: in.Expertise}); err == nil || !strings.Contains(err.Error(), "duplicate task id 2") {
		t.Errorf("duplicate task id: got %v", err)
	}
}

// TestMaxQualityAllocationBudget keeps per-pair boxing from coming back:
// the dense heap made about 8 allocations per pair, 720 000 at this size.
func TestMaxQualityAllocationBudget(t *testing.T) {
	in := randomInput(5, 300, 300)
	in.Parallelism = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := MaxQuality(in, MaxQualityOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("MaxQuality at 300×300 made %.0f allocations, budget 1000", allocs)
	}
}
