package simulation

import (
	"errors"
	"math"
	"sync"
	"testing"

	"eta2/internal/dataset"
	"eta2/internal/embedding"
)

var (
	testEmbOnce sync.Once
	testEmb     *embedding.Model
	testEmbErr  error
)

// testEmbedder trains one small shared model for all simulation tests.
func testEmbedder(t *testing.T) embedding.Embedder {
	t.Helper()
	testEmbOnce.Do(func() {
		corpus := embedding.GenerateCorpus(embedding.BuiltinDomains, embedding.CorpusConfig{
			Seed:               1,
			SentencesPerDomain: 150,
		})
		testEmb, testEmbErr = embedding.Train(corpus, embedding.TrainConfig{Dim: 24, Epochs: 3, Seed: 2})
	})
	if testEmbErr != nil {
		t.Fatal(testEmbErr)
	}
	return testEmb
}

func TestRunValidation(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 1, NumUsers: 5, NumTasks: 10, NumDomains: 2})
	if _, err := Run(ds, Config{Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
	survey := dataset.SurveyLike(1)
	if _, err := Run(survey, Config{Method: MethodETA2}); !errors.Is(err, ErrNeedEmbedder) {
		t.Errorf("textual dataset without embedder: %v", err)
	}
	bad := dataset.Synthetic(dataset.SyntheticConfig{Seed: 1, NumUsers: 3, NumTasks: 3, NumDomains: 2})
	bad.GenDomain[0] = 77
	if _, err := Run(bad, Config{}); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestRunAllMethodsSynthetic(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 1, NumUsers: 30, NumTasks: 150, NumDomains: 4})
	for _, m := range AllMethods {
		res, err := Run(ds, Config{Method: m, Seed: 11, Days: 3})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res.Days) != 3 {
			t.Errorf("%v: %d day records", m, len(res.Days))
		}
		if res.OverallError <= 0 || math.IsNaN(res.OverallError) {
			t.Errorf("%v: overall error %g", m, res.OverallError)
		}
		if res.TotalCost <= 0 {
			t.Errorf("%v: cost %g", m, res.TotalCost)
		}
		if res.Method != m {
			t.Errorf("result method %v, want %v", res.Method, m)
		}
	}
}

func TestETA2BeatsBaselinesSynthetic(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 1})
	eta, err := Run(ds, Config{Method: MethodETA2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodHubsAuthorities, MethodAverageLog, MethodTruthFinder, MethodBaseline} {
		other, err := Run(ds, Config{Method: m, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if eta.OverallError >= other.OverallError {
			t.Errorf("ETA2 error %.3f not below %v error %.3f", eta.OverallError, m, other.OverallError)
		}
	}
}

func TestETA2ErrorDropsAfterWarmup(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 2})
	res, err := Run(ds, Config{Method: MethodETA2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	warmup := res.Days[0].Error
	last := res.Days[len(res.Days)-1].Error
	if last >= warmup {
		t.Errorf("day-%d error %.3f not below warm-up error %.3f", len(res.Days)-1, last, warmup)
	}
}

func TestETA2TextualPipeline(t *testing.T) {
	ds := dataset.SurveyLike(11)
	res, err := Run(ds, Config{Method: MethodETA2, Seed: 5, Embedder: testEmbedder(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallError > 0.6 {
		t.Errorf("survey-like overall error %.3f implausibly high", res.OverallError)
	}
	base, err := Run(ds, Config{Method: MethodBaseline, Seed: 5, Embedder: testEmbedder(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OverallError >= base.OverallError {
		t.Errorf("ETA2 %.3f not below baseline %.3f on survey-like data", res.OverallError, base.OverallError)
	}
}

func TestMinCostCheaperSameDataset(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 1, AvgCapacity: 16})
	mq, err := Run(ds, Config{Method: MethodETA2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run(ds, Config{Method: MethodETA2MC, Seed: 7, IterBudget: 60})
	if err != nil {
		t.Fatal(err)
	}
	if mc.TotalCost >= mq.TotalCost {
		t.Errorf("min-cost total %.0f not below max-quality %.0f", mc.TotalCost, mq.TotalCost)
	}
	// Quality requirement ε̄=0.5 must hold on average.
	if mc.OverallError >= 0.5 {
		t.Errorf("min-cost overall error %.3f above the quality bound", mc.OverallError)
	}
}

func TestKeepObservations(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 3, NumUsers: 20, NumTasks: 60, NumDomains: 3})
	res, err := Run(ds, Config{Method: MethodETA2, Seed: 1, Days: 2, KeepObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Observations) == 0 {
		t.Fatal("no observations retained")
	}
	totalPairs := 0
	for _, d := range res.Days {
		totalPairs += d.Pairs
	}
	if len(res.Observations) != totalPairs {
		t.Errorf("%d observations for %d pairs", len(res.Observations), totalPairs)
	}
	// Off by default.
	res2, err := Run(ds, Config{Method: MethodETA2, Seed: 1, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Observations) != 0 {
		t.Error("observations retained without KeepObservations")
	}
}

func TestRunDeterministic(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 4, NumUsers: 20, NumTasks: 60, NumDomains: 3})
	a, err := Run(ds, Config{Method: MethodETA2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds, Config{Method: MethodETA2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallError != b.OverallError || a.TotalCost != b.TotalCost {
		t.Error("same seed produced different results")
	}
	c, err := Run(ds, Config{Method: MethodETA2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallError == c.OverallError {
		t.Error("different seeds produced identical error (suspicious)")
	}
}

func TestExpertiseErrorOnlyForKnownDomains(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 5, NumUsers: 20, NumTasks: 80, NumDomains: 3})
	res, err := Run(ds, Config{Method: MethodETA2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.ExpertiseError) {
		t.Error("synthetic run should report expertise error")
	}
	res, err = Run(ds, Config{Method: MethodBaseline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.ExpertiseError) {
		t.Error("baseline should not report expertise error")
	}
}

func TestTable2StatsPopulated(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 6})
	res, err := Run(ds, Config{Method: MethodETA2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UsersPerTask) == 0 || len(res.AvgAllocatedExpertise) == 0 {
		t.Fatal("Table 2 statistics not collected")
	}
	for tid, n := range res.UsersPerTask {
		if n <= 0 {
			t.Errorf("task %d has %d users", tid, n)
		}
		if e := res.AvgAllocatedExpertise[tid]; e <= 0 {
			t.Errorf("task %d avg expertise %g", tid, e)
		}
	}
}

func TestMLEIterationsRecorded(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 7, NumUsers: 20, NumTasks: 60, NumDomains: 3})
	res, err := Run(ds, Config{Method: MethodETA2, Seed: 1, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MLEIterations) != 4 {
		t.Errorf("%d iteration records for 4 days", len(res.MLEIterations))
	}
	for _, it := range res.MLEIterations {
		if it < 1 || it > 200 {
			t.Errorf("implausible iteration count %d", it)
		}
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{
		MethodETA2:            "ETA2",
		MethodETA2MC:          "ETA2-mc",
		MethodHubsAuthorities: "Hubs and Authorities",
		MethodAverageLog:      "Average-Log",
		MethodTruthFinder:     "TruthFinder",
		MethodBaseline:        "Baseline",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Method(42).String() == "" {
		t.Error("unknown method should still render")
	}
}

func TestPartitionTasksEven(t *testing.T) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 8, NumUsers: 10, NumTasks: 103, NumDomains: 2})
	res, err := Run(ds, Config{Method: MethodBaseline, Seed: 1, Days: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range res.Days {
		total += d.NumTasks
		if d.NumTasks < 103/5 || d.NumTasks > 103/5+2 {
			t.Errorf("day %d has %d tasks, uneven split", d.Day, d.NumTasks)
		}
	}
	if total != 103 {
		t.Errorf("days cover %d tasks, want 103", total)
	}
}

// AllMethods lists every simulatable method.
var AllMethods = []Method{
	MethodETA2, MethodETA2MC, MethodHubsAuthorities,
	MethodAverageLog, MethodTruthFinder, MethodBaseline,
}
