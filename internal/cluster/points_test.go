package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"eta2/internal/core"
	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/semantic"
	"eta2/internal/stats"
)

// space is what loop.Domains hands the engine: Eq. 2 between task vectors
// for pairs, [V_Q, V_T] for coordinates. evals counts the pair evaluations.
type space struct {
	vecs  []semantic.TaskVector
	evals int
}

func (s *space) dist(a, b int) float64 {
	s.evals++
	return semantic.Distance(s.vecs[a], s.vecs[b])
}

func (s *space) coords(item int, buf []float64) []float64 {
	return append(append(buf, s.vecs[item].Query...), s.vecs[item].Target...)
}

// round is one batch of sameClustering: the pair evaluations of the pairwise
// and of the statistics engine, and the established domains merged.
type round struct{ pairEvals, statEvals, merges int }

// linkageByDomains keys an engine's linkage matrix by domain pair: slot
// order is not part of what the two row builders promise to share.
func linkageByDomains(e *Engine) map[[2]core.DomainID]float64 {
	out := make(map[[2]core.DomainID]float64)
	for i, ci := range e.clusters {
		for j, cj := range e.clusters {
			if ci.domain < cj.domain {
				out[[2]core.DomainID{ci.domain, cj.domain}] = e.dmat[i][j]
			}
		}
	}
	return out
}

// sameClustering feeds the same batches to the pairwise engine (New, the
// oracle) and the statistics engine (NewEuclidean) and fails on the first
// batch after which they differ in anything but slot order and the last
// bits of a linkage: the assignment of every item, the domains created, the
// domains merged and d* are equal, every domain pair's linkage is within
// 1e-12 of the pairwise value relative to it, or to d* for a linkage that
// is zero between duplicates. It returns the statistics engine and what each
// batch cost and merged.
func sameClustering(t *testing.T, gamma float64, vecs []semantic.TaskVector, batch int) (subject *Engine, rounds []round) {
	t.Helper()
	so, ss := &space{vecs: vecs}, &space{vecs: vecs}
	oracle, err := New(gamma, so.dist)
	if err != nil {
		t.Fatal(err)
	}
	subject, err = NewEuclidean(gamma, ss.dist, ss.coords)
	if err != nil {
		t.Fatal(err)
	}
	for first := 0; first < len(vecs); first += batch {
		n := min(batch, len(vecs)-first)
		so.evals, ss.evals = 0, 0
		want, err := oracle.AddItems(n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := subject.AddItems(n)
		if err != nil {
			t.Fatal(err)
		}
		if want.DistEvals != so.evals || got.DistEvals != ss.evals {
			t.Fatalf("items %d+%d: DistEvals reports %d/%d, dist was called %d/%d times",
				first, n, want.DistEvals, got.DistEvals, so.evals, ss.evals)
		}
		rounds = append(rounds, round{so.evals, ss.evals, len(got.Merges)})
		want.DistEvals, got.DistEvals = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("items %d+%d: statistics engine\n new %v merges %v\npairwise\n new %v merges %v (assignments equal: %v)",
				first, n, got.NewDomains, got.Merges, want.NewDomains, want.Merges, reflect.DeepEqual(got.Assigned, want.Assigned))
		}
		if math.Float64bits(subject.DStar()) != math.Float64bits(oracle.DStar()) {
			t.Fatalf("items %d+%d: d* %v, pairwise %v", first, n, subject.DStar(), oracle.DStar())
		}
		wantL, gotL := linkageByDomains(oracle), linkageByDomains(subject)
		if len(gotL) != len(wantL) {
			t.Fatalf("items %d+%d: %d domain pairs, pairwise %d", first, n, len(gotL), len(wantL))
		}
		for pair, w := range wantL {
			g, ok := gotL[pair]
			scale := w
			if w == 0 {
				scale = oracle.DStar()
			}
			if !ok || math.Abs(g-w) > 1e-12*scale {
				t.Fatalf("items %d+%d: linkage of domains %v is %v, pairwise %v", first, n, pair, g, w)
			}
		}
	}
	return subject, rounds
}

func vectorize(t *testing.T, e embedding.Embedder, tasks []core.Task) []semantic.TaskVector {
	t.Helper()
	vzr := semantic.NewVectorizer(e)
	vecs := make([]semantic.TaskVector, len(tasks))
	for i, task := range tasks {
		var err error
		if vecs[i], err = vzr.Vectorize(task.Description); err != nil {
			t.Fatal(err)
		}
	}
	return vecs
}

// The benchmark's loop-described input — 22 days of 500 described tasks from
// the survey templates, embedded by the trained model — for ten seeds: the
// statistics engine must leave every task in the domain the pairwise engine
// puts it in, on every day.
func TestStatisticsMatchPairwiseOnTextual(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	// The model eta2server loads when started with -semantic.
	model, err := embedding.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			cfg := dataset.SurveyConfig(int64(seed))
			cfg.NumUsers, cfg.NumTasks, cfg.NumDomains = 5, 22*500, 6
			vecs := vectorize(t, model, dataset.Textual(cfg).Tasks)
			subject, rounds := sameClustering(t, 0.5, vecs, 500)
			last := rounds[len(rounds)-1]
			t.Logf("%d distinct vectors in %d tasks, %d domains; last batch: %d pair evaluations, pairwise %d",
				len(subject.points.reps), len(vecs), subject.NumDomains(), last.statEvals, last.pairEvals)
		})
	}
}

// The golden server's script at batch level: SurveyLike(11) under
// HashEmbedder(16, 7) in batches of 20 merges established domains, which is
// the one path where statistics are summed afresh.
func TestStatisticsMatchPairwiseThroughDomainMerges(t *testing.T) {
	vecs := vectorize(t, embedding.NewHashEmbedder(16, 7), dataset.SurveyLike(11).Tasks)
	for _, gamma := range []float64{0, 0.5, 1} {
		_, rounds := sameClustering(t, gamma, vecs, 20)
		merged := 0
		for _, r := range rounds {
			merged += r.merges
		}
		if gamma == 0.5 && merged == 0 {
			t.Fatal("no established domains merged: the script no longer reaches the path")
		}
	}
}

// gaussianBlobs draws n points around k centres; every coordinate is a
// fresh draw, so no two points are equal.
func gaussianBlobs(seed int64, n, k, dim int, spread float64) []semantic.TaskVector {
	rng := stats.NewRNG(seed)
	centres := make([][]float64, k)
	for c := range centres {
		centres[c] = make([]float64, 2*dim)
		for i := range centres[c] {
			centres[c][i] = rng.Uniform(-1, 1)
		}
	}
	vecs := make([]semantic.TaskVector, n)
	for i := range vecs {
		v := make([]float64, 2*dim)
		for j, m := range centres[rng.Intn(k)] {
			v[j] = rng.Normal(m, spread)
		}
		vecs[i] = semantic.TaskVector{Query: v[:dim], Target: v[dim:]}
	}
	return vecs
}

func TestStatisticsMatchPairwiseOnDistinctPoints(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, gamma := range []float64{0, 0.5, 1} {
			vecs := gaussianBlobs(seed, 600, 5, 8, 0.05*float64(seed))
			subject, _ := sameClustering(t, gamma, vecs, 75)
			if got := len(subject.points.reps); got != len(vecs) {
				t.Fatalf("seed %d: %d distinct points of %d", seed, got, len(vecs))
			}
		}
	}
}

// Batches made of nothing but copies of four points: every linkage between
// copies is exactly zero in the pairwise engine, and the closed form must
// not let rounding turn that into a merge (γ = 0) or a split.
func TestStatisticsMatchPairwiseOnDuplicates(t *testing.T) {
	base := gaussianBlobs(3, 4, 4, 16, 0.3)
	var vecs []semantic.TaskVector
	for i := 0; i < 400; i++ {
		vecs = append(vecs, base[(i*i+i/7)%len(base)])
	}
	for _, gamma := range []float64{0, 0.5, 1} {
		subject, rounds := sameClustering(t, gamma, vecs, 50)
		if got := len(subject.points.reps); got != len(base) {
			t.Fatalf("γ=%g: %d distinct points, want %d", gamma, got, len(base))
		}
		if gamma == 0 && subject.NumDomains() != len(vecs) {
			t.Fatalf("γ=0 merged duplicates: %d domains of %d items", subject.NumDomains(), len(vecs))
		}
		for b, r := range rounds[1:] {
			if want := 50 * 49 / 2; r.statEvals != want {
				t.Fatalf("γ=%g batch %d: %d pair evaluations, want %d", gamma, b+1, r.statEvals, want)
			}
		}
	}
}

// The cost of a batch is a count, not a timing: with no new distinct point
// it is the batch's own n(n−1)/2 pairs however long the history, and with
// nothing but new distinct points it is that plus one evaluation per
// earlier item — what the pairwise engine pays for every batch.
func TestDistanceEvaluationsIndependentOfHistory(t *testing.T) {
	const n = 500
	base := gaussianBlobs(7, 40, 6, 4, 0.02)
	repeated := func(total int) []semantic.TaskVector {
		vecs := make([]semantic.TaskVector, total)
		for i := range vecs {
			vecs[i] = base[(i*7+i/n)%len(base)]
		}
		return vecs
	}
	for _, history := range []int{10_000, 50_000} {
		if testing.Short() && history > 10_000 {
			continue
		}
		s := &space{vecs: repeated(history + n)}
		e, err := NewEuclidean(0.5, s.dist, s.coords)
		if err != nil {
			t.Fatal(err)
		}
		for e.NumItems() < history {
			if _, err := e.AddItems(n); err != nil {
				t.Fatal(err)
			}
		}
		s.evals = 0
		up, err := e.AddItems(n)
		if err != nil {
			t.Fatal(err)
		}
		if want := n * (n - 1) / 2; s.evals != want || up.DistEvals != want {
			t.Errorf("history %d: %d pair evaluations (reported %d), want n(n-1)/2 = %d", history, s.evals, up.DistEvals, want)
		}
	}

	const history = 2000
	s := &space{vecs: gaussianBlobs(8, history+n, 6, 4, 0.02)}
	e, _ := NewEuclidean(0.5, s.dist, s.coords)
	if _, err := e.AddItems(history); err != nil {
		t.Fatal(err)
	}
	s.evals = 0
	if _, err := e.AddItems(n); err != nil {
		t.Fatal(err)
	}
	if want := n*(n-1)/2 + n*history; s.evals != want {
		t.Errorf("all-distinct input: %d pair evaluations, want n(n-1)/2 + n·history = %d", s.evals, want)
	}
}

func TestAddItemsRefusesAnotherDimension(t *testing.T) {
	vecs := gaussianBlobs(1, 10, 2, 4, 0.1)
	s := &space{vecs: vecs}
	e, _ := NewEuclidean(0.5, s.dist, s.coords)
	if _, err := e.AddItems(6); err != nil {
		t.Fatal(err)
	}
	before := e.State()
	s.vecs[8].Target = append(embedding.Vector{}, 1, 2, 3, 4, 5)
	if _, err := e.AddItems(4); err == nil {
		t.Fatal("a batch with a 9-coordinate item among 8-coordinate ones was clustered")
	}
	if !reflect.DeepEqual(e.State(), before) {
		t.Error("the refused batch changed the engine")
	}
}
