package dataset

import (
	"math"
	"strings"
	"testing"

	"eta2/internal/core"
	"eta2/internal/semantic"
	"eta2/internal/stats"
)

func TestSyntheticMatchesPaperSpec(t *testing.T) {
	ds := Synthetic(SyntheticConfig{Seed: 1})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.Users) != 100 || len(ds.Tasks) != 1000 || ds.NumDomains != 8 {
		t.Fatalf("sizes: %d users, %d tasks, %d domains", len(ds.Users), len(ds.Tasks), ds.NumDomains)
	}
	if !ds.DomainsKnown {
		t.Error("synthetic domains must be pre-known")
	}
	for u, row := range ds.TrueExpertise {
		for d, v := range row {
			if v < 0 || v > 3 {
				t.Fatalf("expertise[%d][%d] = %g outside [0,3]", u, d, v)
			}
		}
	}
	for _, task := range ds.Tasks {
		if task.Truth < 0 || task.Truth > 20 {
			t.Fatalf("truth %g outside [0,20]", task.Truth)
		}
		if task.Base < 0.5 || task.Base > 5 {
			t.Fatalf("base %g outside [0.5,5]", task.Base)
		}
		if task.ProcTime < 0.5 || task.ProcTime > 1.5 {
			t.Fatalf("proc time %g outside [0.5,1.5]", task.ProcTime)
		}
		if task.Domain == core.DomainNone {
			t.Fatal("synthetic task without pre-known domain")
		}
		if int(task.Domain)-1 != ds.GenDomain[int(task.ID)] {
			t.Fatal("Domain and GenDomain out of sync")
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(SyntheticConfig{Seed: 5})
	b := Synthetic(SyntheticConfig{Seed: 5})
	for j := range a.Tasks {
		if a.Tasks[j].Truth != b.Tasks[j].Truth {
			t.Fatal("same seed produced different datasets")
		}
	}
	c := Synthetic(SyntheticConfig{Seed: 6})
	same := true
	for j := range a.Tasks {
		if a.Tasks[j].Truth != c.Tasks[j].Truth {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestSurveyLikeShape(t *testing.T) {
	ds := SurveyLike(1)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.Users) != 60 || len(ds.Tasks) != 150 {
		t.Fatalf("sizes: %d users, %d tasks", len(ds.Users), len(ds.Tasks))
	}
	if ds.DomainsKnown {
		t.Error("survey domains must be discovered, not known")
	}
	for _, task := range ds.Tasks {
		if task.Description == "" {
			t.Fatal("survey task without description")
		}
		if task.Domain != core.DomainNone {
			t.Fatal("survey task domain should be unset")
		}
		if task.ProcTime < 2 || task.ProcTime > 4 {
			t.Fatalf("proc time %g outside [2,4]", task.ProcTime)
		}
	}
}

func TestSFVLikeShape(t *testing.T) {
	ds := SFVLike(2)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ds.Users) != 18 {
		t.Fatalf("users = %d, want 18 slot-filling systems", len(ds.Users))
	}
	for _, task := range ds.Tasks {
		if task.ProcTime < 1 || task.ProcTime > 2 {
			t.Fatalf("proc time %g outside [1,2]", task.ProcTime)
		}
	}
}

func TestDescriptionsExtractable(t *testing.T) {
	// Every generated description must yield a non-empty pair-word so the
	// clustering pipeline never drops a task.
	ds := SurveyLike(3)
	for _, task := range ds.Tasks {
		pair, err := semantic.ExtractPair(task.Description)
		if err != nil {
			t.Fatalf("description %q: %v", task.Description, err)
		}
		if len(pair.Query) == 0 || len(pair.Target) == 0 {
			t.Fatalf("description %q: empty pair %v", task.Description, pair)
		}
	}
}

func TestCapacitiesWithinBand(t *testing.T) {
	cfg := SurveyConfig(4)
	cfg.AvgCapacity = 10
	ds := Textual(cfg)
	for _, u := range ds.Users {
		if u.Capacity < 6-1e-9 || u.Capacity > 14+1e-9 {
			t.Fatalf("capacity %g outside [τ−4, τ+4]", u.Capacity)
		}
	}
}

func TestObservationModelMoments(t *testing.T) {
	rng := stats.NewRNG(1)
	task := core.Task{ID: 0, ProcTime: 1, Truth: 10, Base: 2}
	m := ObservationModel{}
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = m.Observe(task, 2, rng) // σ = base/u = 1
	}
	if mean := stats.Mean(xs); math.Abs(mean-10) > 0.05 {
		t.Errorf("observation mean %g, want ≈10", mean)
	}
	if sd := stats.StdDev(xs); math.Abs(sd-1) > 0.05 {
		t.Errorf("observation std %g, want ≈1", sd)
	}
}

func TestObservationModelBiasPreservesMoments(t *testing.T) {
	rng := stats.NewRNG(2)
	task := core.Task{ID: 0, ProcTime: 1, Truth: 5, Base: 3}
	m := ObservationModel{BiasFraction: 1} // all uniform
	const n = 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = m.Observe(task, 1.5, rng) // σ = 2
	}
	if mean := stats.Mean(xs); math.Abs(mean-5) > 0.06 {
		t.Errorf("biased mean %g, want ≈5", mean)
	}
	if sd := stats.StdDev(xs); math.Abs(sd-2) > 0.06 {
		t.Errorf("biased std %g, want ≈2 (same as normal)", sd)
	}
	// And the uniform really is bounded: |x−μ| ≤ √3·σ.
	for _, x := range xs {
		if math.Abs(x-5) > math.Sqrt(3)*2+1e-9 {
			t.Fatalf("uniform observation %g outside bound", x)
		}
	}
}

func TestObservationModelExpertiseFloor(t *testing.T) {
	rng := stats.NewRNG(3)
	task := core.Task{ID: 0, ProcTime: 1, Truth: 0, Base: 1}
	m := ObservationModel{MinExpertise: 0.1}
	// u = 0 would mean infinite variance; the floor keeps it finite.
	for i := 0; i < 100; i++ {
		v := m.Observe(task, 0, rng)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("observation not finite")
		}
		if math.Abs(v) > 100 { // 10σ at the floor of 0.1
			t.Fatalf("observation %g implausibly far", v)
		}
	}
}

func TestObservePairs(t *testing.T) {
	ds := Synthetic(SyntheticConfig{Seed: 7, NumUsers: 5, NumTasks: 5, NumDomains: 2})
	pairs := []core.Pair{{User: 0, Task: 0}, {User: 1, Task: 3}}
	obs := ds.ObservePairs(pairs, ObservationModel{}, 2, stats.NewRNG(1))
	if len(obs) != 2 {
		t.Fatalf("got %d observations", len(obs))
	}
	for i, o := range obs {
		if o.Task != pairs[i].Task || o.User != pairs[i].User || o.Day != 2 {
			t.Errorf("observation %d mismatch: %+v", i, o)
		}
	}
}

func TestExpertiseDrift(t *testing.T) {
	ds := Synthetic(SyntheticConfig{Seed: 8, NumUsers: 2, NumTasks: 4, NumDomains: 2})
	ds.DriftedExpertise = [][]float64{{9, 9}, {9, 9}}
	ds.DriftDay = 3
	if got := ds.expertiseAt(0, 0, 2); got == 9 {
		t.Error("drift applied before DriftDay")
	}
	if got := ds.expertiseAt(0, 0, 3); got != 9 {
		t.Errorf("drift not applied on DriftDay: %g", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := Synthetic(SyntheticConfig{Seed: 9, NumUsers: 3, NumTasks: 3, NumDomains: 2})
	ds.GenDomain[0] = 99
	if err := ds.Validate(); err == nil || !strings.Contains(err.Error(), "domain") {
		t.Errorf("corrupted domain not caught: %v", err)
	}
	ds = Synthetic(SyntheticConfig{Seed: 9, NumUsers: 3, NumTasks: 3, NumDomains: 2})
	ds.TrueExpertise = ds.TrueExpertise[:1]
	if err := ds.Validate(); err == nil {
		t.Error("truncated expertise not caught")
	}
}

func TestAdversarialObservations(t *testing.T) {
	rng := stats.NewRNG(5)
	task := core.Task{ID: 0, ProcTime: 1, Truth: 10, Base: 2}
	m := ObservationModel{
		Adversaries: map[core.UserID]struct{}{7: {}},
	}
	// Adversary reports ≈ truth + 3·base with small spread.
	var advVals, honestVals []float64
	for i := 0; i < 2000; i++ {
		advVals = append(advVals, m.ObserveAs(7, task, 2, rng))
		honestVals = append(honestVals, m.ObserveAs(1, task, 2, rng))
	}
	if mean := stats.Mean(advVals); math.Abs(mean-16) > 0.1 {
		t.Errorf("adversary mean %g, want ≈16 (truth+3·base)", mean)
	}
	if mean := stats.Mean(honestVals); math.Abs(mean-10) > 0.1 {
		t.Errorf("honest mean %g, want ≈10", mean)
	}
	// Custom offset.
	m.AdversaryOffset = -1
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = m.ObserveAs(7, task, 2, rng)
	}
	if mean := stats.Mean(vals); math.Abs(mean-8) > 0.1 {
		t.Errorf("offset -1 mean %g, want ≈8", mean)
	}
}

// TestSyntheticLargeTierAllocShape: the expertise matrix must be carved
// from one flat backing array (rows contiguous), so large tiers cost a
// few big allocations instead of one per user.
func TestSyntheticLargeTierAllocShape(t *testing.T) {
	cfg := SyntheticConfig{Seed: 11, NumUsers: 100_000, NumTasks: 10_000, NumDomains: 16}
	if testing.Short() {
		cfg.NumUsers = 1000
		cfg.NumTasks = 100
	}
	ds := Synthetic(cfg)
	if len(ds.Users) != cfg.NumUsers || len(ds.Tasks) != cfg.NumTasks {
		t.Fatalf("generated %d users / %d tasks, want %d/%d",
			len(ds.Users), len(ds.Tasks), cfg.NumUsers, cfg.NumTasks)
	}
	d := cfg.NumDomains
	for i := 0; i+1 < len(ds.TrueExpertise); i++ {
		// Row i+1 must begin exactly one element past row i's end: the
		// element at rows[i][d] (readable via the row's spare capacity)
		// is rows[i+1][0].
		row := ds.TrueExpertise[i][:d+1]
		if &row[d] != &ds.TrueExpertise[i+1][0] {
			t.Fatalf("expertise row %d not contiguous with row %d", i, i+1)
		}
	}
}
