package eta2

// This file is the benchmark harness required by DESIGN.md: one benchmark
// per table and figure of the paper's evaluation (each executes the full
// experiment at reduced run count and reports its headline metric), plus
// micro-benchmarks of the core algorithms (clustering, MLE truth analysis,
// max-quality and min-cost allocation; skip-gram training is
// BenchmarkSkipGramTraining in internal/embedding, beside its reference).
//
// Regenerate any experiment's full report with
//
//	go run ./cmd/eta2bench -experiment <id> -runs 10
//
// The benchmarks here use 1–2 runs per data point so `go test -bench=.`
// completes in minutes; the printed metrics are correspondingly noisier
// than the eta2bench reports recorded in EXPERIMENTS.md.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eta2/internal/allocation"
	"eta2/internal/cluster"
	"eta2/internal/core"
	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/experiments"
	"eta2/internal/loop"
	"eta2/internal/obs"
	"eta2/internal/semantic"
	"eta2/internal/simulation"
	"eta2/internal/stats"
	"eta2/internal/trace"
	"eta2/internal/truth"
	"eta2/internal/wal"
)

// benchOpts keeps experiment benchmarks affordable.
var benchOpts = experiments.Options{Runs: 1, Seed: 1, Days: 5}

// runExperiment executes a registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table and figure (Sec. 2.3 and Sec. 6) ---

func BenchmarkFig2ErrorDistribution(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkTable1Normality(b *testing.B)         { runExperiment(b, "table1") }
func BenchmarkFig4ParameterStudy(b *testing.B)      { runExperiment(b, "fig4") }
func BenchmarkFig5ErrorPerDay(b *testing.B)         { runExperiment(b, "fig5") }
func BenchmarkFig6ErrorVsCapacity(b *testing.B)     { runExperiment(b, "fig6") }
func BenchmarkFig7ExpertiseBoxplots(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8NormalityBias(b *testing.B)       { runExperiment(b, "fig8") }
func BenchmarkFig9And10MinCost(b *testing.B)        { runExperiment(b, "fig9") }
func BenchmarkFig11ExpertiseError(b *testing.B)     { runExperiment(b, "fig11") }
func BenchmarkFig12ConvergenceCDF(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkTable2AllocationProfile(b *testing.B) { runExperiment(b, "table2") }

// --- Ablation benchmarks (DESIGN.md Sec. 5) ---

func BenchmarkAblationSecondPass(b *testing.B)     { runExperiment(b, "ablation-secondpass") }
func BenchmarkAblationExpertiseAware(b *testing.B) { runExperiment(b, "ablation-expertise") }
func BenchmarkAblationPairWord(b *testing.B)       { runExperiment(b, "ablation-pairword") }
func BenchmarkAblationDecay(b *testing.B)          { runExperiment(b, "ablation-decay") }

// --- Micro-benchmarks of the substrates ---

func BenchmarkPairWordExtraction(b *testing.B) {
	descs := make([]string, 0, 64)
	ds := dataset.SurveyLike(1)
	for _, t := range ds.Tasks[:64] {
		descs = append(descs, t.Description)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := semantic.ExtractPair(descs[i%len(descs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClustering500Tasks(b *testing.B) {
	rng := stats.NewRNG(1)
	const n = 500
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Uniform(0, 10), rng.Uniform(0, 10)}
	}
	dist := func(a, c int) float64 {
		dx := pts[a][0] - pts[c][0]
		dy := pts[a][1] - pts[c][1]
		return dx*dx + dy*dy
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := cluster.New(0.4, dist)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.AddItems(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicClusteringAdd(b *testing.B) {
	rng := stats.NewRNG(2)
	const base, add = 400, 100
	pts := make([][2]float64, base+add)
	for i := range pts {
		pts[i] = [2]float64{rng.Uniform(0, 10), rng.Uniform(0, 10)}
	}
	dist := func(a, c int) float64 {
		dx := pts[a][0] - pts[c][0]
		dy := pts[a][1] - pts[c][1]
		return dx*dx + dy*dy
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := cluster.New(0.4, dist)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.AddItems(base); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.AddItems(add); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdentifyWithHistory times one day's domain identification — 500
// described tasks, V_Q and V_T of 32 dimensions each — on top of 0, 5 000
// and 10 000 tasks of history, for both row builders: loop.Domains
// (per-domain statistics, what the server runs) and cluster.New over the
// same vectors (pair distances, the oracle). evals/op is the number of Eq. 2
// evaluations a batch made; the statistics builder's does not grow with the
// history, the pairwise builder's is 500 per item of it.
func BenchmarkIdentifyWithHistory(b *testing.B) {
	const batch = 500
	emb := embedding.NewHashEmbedder(32, 7)
	cfg := dataset.SurveyConfig(1)
	cfg.NumTasks, cfg.NumDomains = 10_000+batch, 6
	tasks := dataset.Textual(cfg).Tasks
	vzr := semantic.NewVectorizer(emb)
	vecs := make([]semantic.TaskVector, len(tasks))
	ids := make([]core.TaskID, len(tasks))
	for i, t := range tasks {
		var err error
		if vecs[i], err = vzr.Vectorize(t.Description); err != nil {
			b.Fatal(err)
		}
		ids[i] = core.TaskID(i)
	}
	noMerge := func(_, _ core.DomainID) {}
	domainOf := make([]core.DomainID, len(tasks)) // written, never read: every builder's output lands here
	dist := func(x, y int) float64 { return semantic.Distance(vecs[x], vecs[y]) }

	for _, history := range []int{0, 5_000, 10_000} {
		// The history is identified once, day by day, and every iteration
		// restores from its state: both builders read the same snapshot.
		past, err := loop.NewDomains(emb, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		for at := 0; at < history; at += batch {
			if _, err := past.Identify(ids[at:at+batch], vecs[at:at+batch], domainOf, noMerge); err != nil {
				b.Fatal(err)
			}
		}
		state := past.State()
		run := func(b *testing.B, restore func() (identify func() (cluster.Update, error), err error)) {
			evals := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				identify, err := restore()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				up, err := identify()
				if err != nil {
					b.Fatal(err)
				}
				evals += up.DistEvals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		}
		b.Run(fmt.Sprintf("history=%d/statistics", history), func(b *testing.B) {
			run(b, func() (func() (cluster.Update, error), error) {
				d, err := loop.RestoreDomains(state, emb)
				return func() (cluster.Update, error) {
					return d.Identify(ids[history:history+batch], vecs[history:history+batch], domainOf, noMerge)
				}, err
			})
		})
		b.Run(fmt.Sprintf("history=%d/pairwise", history), func(b *testing.B) {
			run(b, func() (func() (cluster.Update, error), error) {
				e, err := cluster.Restore(state.Cluster, dist)
				return func() (cluster.Update, error) { return e.AddItems(batch) }, err
			})
		})
	}
}

func benchObservations(seed int64, nUsers, nTasks, perTask int) (*core.ObservationTable, func(core.TaskID) core.DomainID) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: seed, NumUsers: nUsers, NumTasks: nTasks, NumDomains: 8})
	rng := stats.NewRNG(seed)
	var pairs []core.Pair
	for j := range ds.Tasks {
		for _, u := range rng.Perm(nUsers)[:perTask] {
			pairs = append(pairs, core.Pair{User: core.UserID(u), Task: core.TaskID(j)})
		}
	}
	obs := ds.ObservePairs(pairs, dataset.ObservationModel{}, 0, rng)
	return core.NewObservationTable(obs), func(id core.TaskID) core.DomainID { return ds.Tasks[int(id)].Domain }
}

func BenchmarkMLEEstimate1000Tasks(b *testing.B) {
	table, domainOf := benchObservations(1, 100, 1000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truth.Estimate(table, domainOf, nil, truth.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLEEstimateSequential pins Parallelism to 1 (the exact
// goroutine-free path) so the dense-index speedup can be read separately
// from the worker-pool speedup.
func BenchmarkMLEEstimateSequential(b *testing.B) {
	table, domainOf := benchObservations(1, 100, 1000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truth.Estimate(table, domainOf, nil, truth.Config{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLEEstimateParallel makes the worker pool explicit (one worker
// per CPU, which is also the default when Parallelism is zero).
func BenchmarkMLEEstimateParallel(b *testing.B) {
	table, domainOf := benchObservations(1, 100, 1000, 6)
	cfg := truth.Config{Parallelism: runtime.GOMAXPROCS(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truth.Estimate(table, domainOf, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLEEstimate10kTasks is the production-scale data point: 10k
// tasks, 60k observations per estimation call.
func BenchmarkMLEEstimate10kTasks(b *testing.B) {
	table, domainOf := benchObservations(1, 200, 10000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truth.Estimate(table, domainOf, nil, truth.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicUpdateStep(b *testing.B) {
	table, domainOf := benchObservations(2, 100, 200, 6)
	warm := truth.NewStore(0.5)
	res, err := truth.Estimate(table, domainOf, nil, truth.Config{})
	if err != nil {
		b.Fatal(err)
	}
	warm.Commit(truth.Contributions(table, domainOf, res.Mu, res.Sigma, truth.Config{}))
	newTable, _ := benchObservations(3, 100, 200, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := warm.Clone()
		if _, err := truth.UpdateStep(st, newTable, domainOf, truth.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxQualityAllocation(b *testing.B) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 4})
	in := allocation.Input{
		Users: ds.Users,
		Tasks: ds.Tasks[:200],
		Expertise: func(u core.UserID, t core.TaskID) float64 {
			return ds.ExpertiseOf(u, t)
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := allocation.MaxQuality(in, allocation.MaxQualityOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSimulationDay(b *testing.B) {
	ds := dataset.Synthetic(dataset.SyntheticConfig{Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulation.Run(ds, simulation.Config{Method: simulation.MethodETA2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerAPIRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewServer()
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < 20; u++ {
			if err := s.AddUsers(User{ID: UserID(u), Capacity: 8}); err != nil {
				b.Fatal(err)
			}
		}
		specs := make([]TaskSpec, 40)
		for j := range specs {
			specs[j] = TaskSpec{Description: "t", ProcTime: 1, DomainHint: DomainID(j%4 + 1)}
		}
		if _, err := s.CreateTasks(specs...); err != nil {
			b.Fatal(err)
		}
		alloc, err := s.AllocateMaxQuality()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range alloc.Pairs {
			if err := s.SubmitObservations(Observation{Task: p.Task, User: p.User, Value: float64(p.Task)}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.CloseTimeStep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepWithTaskHistory times what a step pays for the tasks of
// earlier days: one create of 10 000 hinted tasks and one close over two
// observations per new task, on a server restored with 0, 50 000 and
// 150 000 hinted, estimated tasks of history. ms/create is the create;
// ms/close-minus-MLE is the close less its "truth estimate" span (table
// build, store clone, MLE), i.e. the truths column copy, the report and the
// publish. The per-task columns make the create an append and the close one
// flat copy, so neither should grow like the history does. The step timed is
// the first whose tasks fit the capacity of the tasks column: a restored
// slice has none to spare, and whether one particular create pays append's amortized
// reallocation (a copy of every core.Task, once per quarter of the history)
// is luck of the sizes, not a cost of the design measured here.
func BenchmarkStepWithTaskHistory(b *testing.B) {
	const day, users = 10_000, 20
	specs := make([]TaskSpec, day)
	for i := range specs {
		specs[i] = TaskSpec{ProcTime: 1, DomainHint: DomainID(i%8 + 1)}
	}
	// step runs one day on s and returns the create's duration and the
	// close's less its estimate span.
	step := func(s *Server, perTask int) (create, overhead time.Duration) {
		start := time.Now()
		ids, err := s.CreateTasks(specs...)
		create = time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		obs := make([]Observation, 0, perTask*len(ids))
		for _, id := range ids {
			for k := 0; k < perTask; k++ {
				obs = append(obs, Observation{Task: id, User: UserID((int(id) + 7*k) % users), Value: float64(int(id)%13) + float64(k)})
			}
		}
		if err := s.SubmitObservations(obs...); err != nil {
			b.Fatal(err)
		}
		tr := s.Tracer().StartRoot("bench close", true)
		start = time.Now()
		_, err = s.CloseTimeStepContext(trace.NewContext(context.Background(), tr))
		overhead = time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		tr.End()
		for _, sp := range tr.Export().Spans {
			if sp.Name == trace.SpanTruthEstimate {
				overhead -= time.Duration(sp.DurNS)
			}
		}
		return create, overhead
	}
	for _, history := range []int{0, 50_000, 150_000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			past, err := NewServer()
			if err != nil {
				b.Fatal(err)
			}
			for u := 0; u < users; u++ {
				if err := past.AddUsers(User{ID: UserID(u), Capacity: 8}); err != nil {
					b.Fatal(err)
				}
			}
			for at := 0; at < history; at += day {
				step(past, 1)
			}
			var snap bytes.Buffer
			if err := past.SaveStateBinary(&snap); err != nil {
				b.Fatal(err)
			}
			var create, overhead time.Duration
			for i := 0; i < b.N; i++ {
				s, err := LoadServer(bytes.NewReader(snap.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				for s.st.Load().Counts().TaskRoom < day {
					step(s, 2)
				}
				runtime.GC()
				c, o := step(s, 2)
				create, overhead = create+c, overhead+o
			}
			b.ReportMetric(float64(create)/1e6/float64(b.N), "ms/create")
			b.ReportMetric(float64(overhead)/1e6/float64(b.N), "ms/close-minus-MLE")
		})
	}
}

// BenchmarkStepWithExpertiseHistory times what a step pays for the expertise
// accumulated before it: one close over 800 hinted tasks observed twice by
// 200 users, on a server restored with 1 000, 10 000 and 100 000 users, each
// with evidence in all of 8 domains. ms/close-minus-MLE is the close less
// what the truth package recorded for its fixed-point run (the solve is the
// same in every row): table build, the store's clone, its decay sweep and
// the step's commit, the truths column copy and the publish. ms/capture is
// what a compaction, SaveStateBinary or a follower bootstrap holds the lock
// for. The store's share of both is one flat copy and one slice header.
func BenchmarkStepWithExpertiseHistory(b *testing.B) {
	const domains, perDomain, reporters = 8, 100, 200
	specs := make([]TaskSpec, domains*perDomain)
	for i := range specs {
		specs[i] = TaskSpec{ProcTime: 1, DomainHint: DomainID(i%domains + 1)}
	}
	// mleSeconds is the truth package's own account of its runs so far.
	mleSeconds := func() (sum float64) {
		var buf bytes.Buffer
		if err := obs.Default().WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "eta2_truth_estimate_duration_seconds_sum") {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					b.Fatal(err)
				}
				sum += v
			}
		}
		return sum
	}
	// step runs one day on s and returns the close's duration less its MLE.
	step := func(s *Server) time.Duration {
		ids, err := s.CreateTasks(specs...)
		if err != nil {
			b.Fatal(err)
		}
		reports := make([]Observation, 0, 2*len(ids))
		for _, id := range ids {
			for k := 0; k < 2; k++ {
				reports = append(reports, Observation{Task: id, User: UserID((int(id) + 7*k) % reporters), Value: float64(int(id)%13) + float64(k)})
			}
		}
		if err := s.SubmitObservations(reports...); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		mle := mleSeconds()
		start := time.Now()
		if _, err := s.CloseTimeStep(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start) - time.Duration((mleSeconds()-mle)*float64(time.Second))
	}
	for _, users := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			past, err := NewServer()
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]User, users)
			entries := make([]truth.StoreEntry, 0, users*domains)
			for u := range batch {
				batch[u] = User{ID: UserID(u), Capacity: 8}
				for d := 1; d <= domains; d++ {
					entries = append(entries, truth.StoreEntry{User: UserID(u), Domain: DomainID(d), N: float64(3 + u%5), D: float64(1+d) / 2})
				}
			}
			if err := past.AddUsers(batch...); err != nil {
				b.Fatal(err)
			}
			step(past) // day 0 is the warm-up MLE: the steps timed are dynamic updates
			// The snapshot restored for every iteration is past's with its
			// store replaced by entries.
			sections := splitCheckedSections(b, saveBytes(b, past))
			sections.store = truth.StoreState{Alpha: sections.store.Alpha, Prior: truth.DefaultStorePrior, Entries: entries}
			snap := bytes.NewBuffer(sections.file())
			var overhead, capture time.Duration
			for i := 0; i < b.N; i++ {
				s, err := LoadServer(bytes.NewReader(snap.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				overhead += step(s)
				runtime.GC()
				start := time.Now()
				st := s.st.Load()
				capture += time.Since(start)
				if n := st.Counts().ExpertiseRows; n != users*domains {
					b.Fatalf("captured %d store entries, want %d", n, users*domains)
				}
			}
			b.ReportMetric(float64(overhead)/1e6/float64(b.N), "ms/close-minus-MLE")
			b.ReportMetric(float64(capture)/1e6/float64(b.N), "ms/capture")
		})
	}
}

// --- Durability benchmarks (DESIGN.md Sec. 10) ---

// BenchmarkWALAppend measures the raw journaling cost per record with
// syncing disabled; BenchmarkWALAppendDurable below is the durable commit.
func BenchmarkWALAppend(b *testing.B) {
	l, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncNever, SegmentSize: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendDurable measures one acknowledged record under
// SyncAlways — a write and a data sync — at the payload sizes of a
// loop-wide submit and a bulk-close batch, with default 1 MiB segments so
// rotations and window extensions are part of the mean. The number is the
// device's: compare it across commits on one disk, not across machines.
func BenchmarkWALAppendDurable(b *testing.B) {
	for _, size := range []int{160, 1 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := bytes.Repeat([]byte("x"), size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALGroupCommit runs 1 and 2 closed-loop writers on SyncAlways
// with every fsync stretched by 2 ms, a slow disk's flush, so the row
// shows group commit on any disk. Two writers that share each flush read
// about 0.5 fsyncs/record and twice one writer's records/s; without the
// gather these in-process writers batch only by chance (about 0.7).
func BenchmarkWALGroupCommit(b *testing.B) {
	fsyncs := obs.Default().Counter("eta2_wal_fsyncs_total", "")
	for _, writers := range []int{1, 2} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			l, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncAlways, SyncDelay: 2 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := bytes.Repeat([]byte("x"), 160)
			took := make([]time.Duration, b.N)
			f0 := fsyncs.Value()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < b.N; i += writers {
						start := time.Now()
						if _, err := l.Append(payload); err != nil {
							b.Error(err)
							return
						}
						took[i] = time.Since(start)
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			slices.Sort(took)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(fsyncs.Value()-f0)/float64(b.N), "fsyncs/record")
			b.ReportMetric(float64(took[b.N/2].Microseconds()), "p50-commit-us")
		})
	}
}

// BenchmarkRecovery10kEvents measures cold-start recovery (WAL scan +
// replay, no snapshot) of a journal holding 10k observation batches.
func BenchmarkRecovery10kEvents(b *testing.B) {
	dir := b.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 1 << 30}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	// Close only the log, not the server: Server.Close would compact the
	// journal away and leave nothing to replay.
	if err := s.st.Load().journal.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewServer(WithDurability(dir, pol))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.st.Load().journal.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionAdversarial(b *testing.B) { runExperiment(b, "ext-adversarial") }

func BenchmarkExtensionDropout(b *testing.B) { runExperiment(b, "ext-dropout") }

// --- Ingest-path allocation discipline (DESIGN.md Sec. 15) ---

// newIngestBenchServer builds a durable fsync-never server with nUsers
// users and nTasks single-domain tasks, ready to accept observations.
func newIngestBenchServer(tb testing.TB, dir string, nUsers, nTasks int) *Server {
	tb.Helper()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 256 << 20}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		tb.Fatal(err)
	}
	users := make([]User, nUsers)
	for i := range users {
		users[i] = User{ID: UserID(i), Capacity: 1 << 30}
	}
	if err := s.AddUsers(users...); err != nil {
		tb.Fatal(err)
	}
	specs := make([]TaskSpec, nTasks)
	for i := range specs {
		specs[i] = TaskSpec{DomainHint: 1, ProcTime: 1}
	}
	if _, err := s.CreateTasks(specs...); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestIngestJournalPathZeroAlloc pins the PR 8 tentpole guarantee: the
// journal-encode + WAL-append + commit section of SubmitObservations is
// allocation-free at steady state. The section is exercised exactly as
// the hot path runs it — pooled buffer out of obsEventPool, binary event
// encode into its retained capacity, buffered append, fsync-policy
// commit, buffer back to the pool.
func TestIngestJournalPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are gated in normal builds")
	}
	s := newIngestBenchServer(t, t.TempDir(), 8, 16)
	defer s.Close()
	obs := make([]Observation, 8)
	for i := range obs {
		obs[i] = Observation{Task: TaskID(i % 16), User: UserID(i % 8), Value: float64(i) * 1.5}
	}
	// Warm the pool and the segment file before measuring.
	for i := 0; i < 4; i++ {
		if err := s.SubmitObservations(obs...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		eb := obsEventPool.Get().(*obsEventBuf)
		eb.encode(obs, 3)
		lsn, err := s.st.Load().journal.AppendBuffered(eb.b)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.st.Load().journal.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		obsEventPool.Put(eb)
	})
	if allocs != 0 {
		t.Fatalf("journal encode + WAL append section allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDurableCommitZeroAlloc extends the gate above to the sync the
// fsync-never server there never makes: under SyncAlways the one write
// and the commit leader's data sync (its RawConn and closure are built
// once per segment) stay off the heap too.
func TestDurableCommitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are gated in normal builds")
	}
	l, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 160)
	if _, err := l.Append(payload); err != nil { // grows the frame scratch
		t.Fatal(err)
	}
	appendOnce := func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, appendOnce); allocs != 0 {
		t.Fatalf("durable WAL append + commit allocates %.1f objects/op, want 0", allocs)
	}

	// A second closed-loop writer: now each commit gathers and leads, or
	// parks and is covered, and the counts include the second writer's.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := l.Append(payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)
	for i := 0; i < 20; i++ { // let the writers settle into sharing fsyncs
		appendOnce()
	}
	if allocs := testing.AllocsPerRun(100, appendOnce); allocs != 0 {
		t.Fatalf("durable WAL append + commit beside a second writer allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSubmitObservationsAllocBudget bounds the whole call, not just the
// journal section. The irreducible steady-state cost is the immutable
// snapshot republished per mutation (the state cell's fresh serverState)
// plus amortized growth of the observation backlog; everything else —
// event encode, WAL frame, validation — must stay off the heap.
func TestSubmitObservationsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are gated in normal builds")
	}
	s := newIngestBenchServer(t, t.TempDir(), 8, 16)
	defer s.Close()
	obs := make([]Observation, 8)
	for i := range obs {
		obs[i] = Observation{Task: TaskID(i % 16), User: UserID(i % 8), Value: float64(i) * 1.5}
	}
	for i := 0; i < 4; i++ {
		if err := s.SubmitObservations(obs...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.SubmitObservations(obs...); err != nil {
			t.Fatal(err)
		}
	})
	// Snapshot republish is ~1 allocation; slice growth of the backlog
	// amortizes below 1 more.
	if allocs > 2 {
		t.Fatalf("SubmitObservations allocates %.1f objects/op, want <= 2", allocs)
	}
}

// TestSubmitObservationsAllocBudgetTraced re-runs the whole-call budget
// with head sampling live (PR 9): at 1-in-8 sampling the amortized trace
// cost is one Trace allocation plus one context value per sampled op —
// about a quarter of an allocation per call — and the unsampled calls in
// between must stay at the untraced floor. Same <= 2 gate as the
// untraced test: tracing must hide inside the existing slack.
func TestSubmitObservationsAllocBudgetTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are gated in normal builds")
	}
	s := newIngestBenchServer(t, t.TempDir(), 8, 16)
	defer s.Close()
	s.Tracer().SetSampleEvery(8)
	obs := make([]Observation, 8)
	for i := range obs {
		obs[i] = Observation{Task: TaskID(i % 16), User: UserID(i % 8), Value: float64(i) * 1.5}
	}
	for i := 0; i < 8; i++ {
		if err := s.SubmitObservations(obs...); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		tr := s.Tracer().StartRoot("bench write", false)
		if err := s.SubmitObservationsContext(trace.NewContext(ctx, tr), obs...); err != nil {
			t.Fatal(err)
		}
		tr.End()
	})
	if allocs > 2 {
		t.Fatalf("SubmitObservations with 1-in-8 trace sampling allocates %.1f objects/op, want <= 2", allocs)
	}
	if got := s.Tracer().Recorder().Snapshot(); len(got) == 0 {
		t.Fatal("sampling produced no completed traces; the traced budget measured nothing")
	}
}

// TestIngestJournalPathZeroAllocTraced pins the same journal section at
// zero allocations when a live trace is recording spans around it: span
// handles point into the Trace's inline array, so StartSpan/End/Annotate
// never touch the heap.
func TestIngestJournalPathZeroAllocTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are gated in normal builds")
	}
	s := newIngestBenchServer(t, t.TempDir(), 8, 16)
	defer s.Close()
	obs := make([]Observation, 8)
	for i := range obs {
		obs[i] = Observation{Task: TaskID(i % 16), User: UserID(i % 8), Value: float64(i) * 1.5}
	}
	for i := 0; i < 4; i++ {
		if err := s.SubmitObservations(obs...); err != nil {
			t.Fatal(err)
		}
	}
	tracer := trace.New(1, 8)
	allocs := testing.AllocsPerRun(200, func() {
		tr := tracer.StartRoot("journal section", true)
		enc := tr.StartSpan(trace.SpanEncode)
		eb := obsEventPool.Get().(*obsEventBuf)
		eb.encode(obs, 3)
		enc.End()
		app := tr.StartSpan(trace.SpanJournalAppend)
		lsn, err := s.st.Load().journal.AppendBuffered(eb.b)
		if err != nil {
			t.Fatal(err)
		}
		app.End()
		fsync := tr.StartSpan(trace.SpanFsyncWait)
		if err := s.st.Load().journal.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		fsync.Annotate("role=leader")
		fsync.End()
		tr.End()
		obsEventPool.Put(eb)
	})
	// One allocation per run: the sampled Trace itself. The span
	// recording inside it must be free.
	if allocs > 1 {
		t.Fatalf("traced journal section allocates %.1f objects/op, want <= 1 (the Trace)", allocs)
	}
}

// BenchmarkSubmitObservations measures the full ingest write path
// (validate, binary event encode, WAL buffered append, apply, snapshot
// republish, fsync-never commit) at several batch sizes. Run with
// -benchmem: steady-state allocs/op must stay at the one published copy
// per Write regardless of batch size.
func BenchmarkSubmitObservations(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			s := newIngestBenchServer(b, b.TempDir(), 64, 128)
			defer s.Close()
			obs := make([]Observation, batch)
			for i := range obs {
				obs[i] = Observation{Task: TaskID(i % 128), User: UserID(i % 64), Value: float64(i)}
			}
			if err := s.SubmitObservations(obs...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SubmitObservations(obs...); err != nil {
					b.Fatal(err)
				}
				if i%100_000 == 99_999 {
					// Cap the in-memory backlog so long -benchtime runs
					// measure ingest, not backlog growth.
					b.StopTimer()
					if _, err := s.CloseTimeStep(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
