package truth

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"eta2/internal/core"
	"eta2/internal/stats"
)

func TestUpdateStepErrors(t *testing.T) {
	s := NewStore(0.5)
	if _, err := UpdateStep(s, nil, nil, Config{}); !errors.Is(err, ErrNoObservations) {
		t.Errorf("nil table: %v", err)
	}
	if _, err := UpdateStep(s, core.NewObservationTable(nil), nil, Config{}); !errors.Is(err, ErrNoObservations) {
		t.Errorf("empty table: %v", err)
	}
}

func TestUpdateStepCommits(t *testing.T) {
	s := NewStore(0.5)
	rng := stats.NewRNG(1)
	var obs []core.Observation
	for j := 0; j < 20; j++ {
		for u := 0; u < 5; u++ {
			obs = append(obs, core.Observation{Task: core.TaskID(j), User: core.UserID(u), Value: rng.Normal(10, 1)})
		}
	}
	res, err := UpdateStep(s, core.NewObservationTable(obs), func(core.TaskID) core.DomainID { return 1 }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mu) != 20 {
		t.Errorf("estimated %d tasks, want 20", len(res.Mu))
	}
	for u := 0; u < 5; u++ {
		if !s.Seen(core.UserID(u), 1) {
			t.Errorf("user %d evidence not committed", u)
		}
	}
	if res.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestUpdateStepUsesHistoricalExpertise(t *testing.T) {
	// Seed the store so user 0 is known to be an expert and user 1 known
	// to be noise. A new task observed by both should be estimated near
	// user 0's value even from a single day of data.
	s := NewStore(1)
	s.Commit([]Contribution{
		{User: 0, Domain: 1, Count: 50, ResidualSq: 2},    // u ≈ 5 (clamped band)
		{User: 1, Domain: 1, Count: 50, ResidualSq: 5000}, // u ≈ 0.1
	})

	obs := []core.Observation{
		{Task: 0, User: 0, Value: 10.0},
		{Task: 0, User: 1, Value: 20.0},
		{Task: 1, User: 0, Value: 5.0},
		{Task: 1, User: 1, Value: -5.0},
	}
	res, err := UpdateStep(s, core.NewObservationTable(obs), func(core.TaskID) core.DomainID { return 1 }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mu[0]-10) > 1 {
		t.Errorf("task 0 estimate %.2f should hug the expert's 10", res.Mu[0])
	}
	if math.Abs(res.Mu[1]-5) > 1 {
		t.Errorf("task 1 estimate %.2f should hug the expert's 5", res.Mu[1])
	}
}

func TestUpdateStepBeatsMeanEveryDay(t *testing.T) {
	// With a heterogeneous user population, the expertise-weighted MLE
	// must beat the plain per-task mean on every simulated day, and its
	// MLE iteration count should shrink once the store is warm (the
	// candidate expertise starts close to the fixed point).
	rng := stats.NewRNG(7)
	const nUsers, perDay, days = 20, 100, 5
	trueU := make([]float64, nUsers)
	for i := range trueU {
		trueU[i] = rng.Uniform(0.3, 3)
	}
	s := NewStore(0.8)
	domain := func(core.TaskID) core.DomainID { return 1 }

	var firstIters, lastIters int
	for day := 0; day < days; day++ {
		var obs []core.Observation
		truths := make(map[core.TaskID]float64)
		for j := 0; j < perDay; j++ {
			id := core.TaskID(day*perDay + j)
			truths[id] = rng.Uniform(0, 20)
			for u := 0; u < 6; u++ {
				ui := rng.Intn(nUsers)
				obs = append(obs, core.Observation{Task: id, User: core.UserID(ui), Value: rng.Normal(truths[id], 2/trueU[ui])})
			}
		}
		tbl := core.NewObservationTable(obs)
		res, err := UpdateStep(s, tbl, domain, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var mleSum, meanSum float64
		for id, truth := range truths {
			mleSum += math.Abs(res.Mu[id] - truth)
			meanSum += math.Abs(stats.Mean(tbl.Values(id)) - truth)
		}
		if mleSum >= meanSum {
			t.Errorf("day %d: MLE error %.3f not below mean error %.3f", day, mleSum/perDay, meanSum/perDay)
		}
		if day == 0 {
			firstIters = res.Iterations
		}
		lastIters = res.Iterations
	}
	if lastIters > firstIters {
		t.Errorf("warm store needed more iterations (%d) than cold (%d)", lastIters, firstIters)
	}
}

func TestSumSquaredExpertise(t *testing.T) {
	e := make(Expertise)
	e.Set(1, 1, 2)
	e.Set(2, 1, 3)
	got := SumSquaredExpertise([]core.UserID{1, 2, 3}, 1, e.Get)
	// 4 + 9 + 1 (default for user 3).
	if got != 14 {
		t.Errorf("SumSquaredExpertise = %g, want 14", got)
	}
}

func TestContributionsSkipUnknownTasks(t *testing.T) {
	obs := []core.Observation{
		{Task: 0, User: 0, Value: 1},
		{Task: 0, User: 1, Value: 2},
	}
	// mu covers no tasks: no contributions.
	out := Contributions(core.NewObservationTable(obs), func(core.TaskID) core.DomainID { return 1 },
		map[core.TaskID]float64{}, map[core.TaskID]float64{}, Config{})
	if len(out) != 0 {
		t.Errorf("contributions for unknown tasks: %v", out)
	}
}

// TestWarmUpCommitsWhatContributionsRecomputes holds the warm-up close's one
// numeric shortcut — committing the evidence the estimation state already
// holds — against the long way round, bit for bit: Estimate, then
// Contributions over a fresh index of the same table, then Commit. One
// single-observation task keeps the MinObsForExpertise floor on the path.
func TestWarmUpCommitsWhatContributionsRecomputes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := newSynthWorld(21, 6)
		w.obs = append(w.obs, core.Observation{Task: core.TaskID(w.nTasks), User: 3, Value: 7})
		w.dom = append(w.dom, 2)
		cfg := Config{Parallelism: workers}

		long := NewStore(0.5)
		est, err := Estimate(w.table(), w.domainOf, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		long.Commit(Contributions(w.table(), w.domainOf, est.Mu, est.Sigma, cfg))

		short := NewStore(0.5)
		res, err := WarmUp(short, w.table(), w.domainOf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bitsOf(short.State()), bitsOf(long.State())) {
			t.Errorf("Parallelism=%d: WarmUp's store differs from Estimate + Contributions + Commit", workers)
		}
		if res.Iterations != est.Iterations || res.Converged != est.Converged ||
			!reflect.DeepEqual(res.Mu, est.Mu) || !reflect.DeepEqual(res.Sigma, est.Sigma) {
			t.Errorf("Parallelism=%d: WarmUp's estimates differ from Estimate's", workers)
		}
	}
}

// bitsOf flattens a store state to float bit patterns, so the comparison is
// exact where == would call -0 and 0, or two NaNs, what they are not.
func bitsOf(st StoreState) []uint64 {
	out := []uint64{math.Float64bits(st.Alpha), math.Float64bits(st.Prior)}
	for _, e := range st.Entries {
		out = append(out, uint64(e.User), uint64(e.Domain), math.Float64bits(e.N), math.Float64bits(e.D))
	}
	return out
}
