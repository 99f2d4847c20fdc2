package eta2

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/rcu"
)

func TestNewServerOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"alpha low", WithAlpha(-0.1)},
		{"alpha high", WithAlpha(1.1)},
		{"gamma low", WithGamma(-1)},
		{"gamma high", WithGamma(2)},
		{"epsilon zero", WithEpsilon(0)},
		{"nil embedder", WithEmbedder(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewServer(tc.opt); err == nil {
				t.Error("invalid option accepted")
			}
		})
	}
	if _, err := NewServer(WithAlpha(0.3), WithGamma(0.6), WithEpsilon(0.2)); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestAddUsersValidation(t *testing.T) {
	s, _ := NewServer()
	if err := s.AddUsers(User{ID: -1, Capacity: 1}); err == nil {
		t.Error("invalid user accepted")
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 1}, User{ID: 1, Capacity: 2}); err != nil {
		t.Fatal(err)
	}
	if s.NumUsers() != 2 {
		t.Errorf("NumUsers = %d", s.NumUsers())
	}
	// Re-adding updates capacity, not count.
	if err := s.AddUsers(User{ID: 0, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if s.NumUsers() != 2 {
		t.Errorf("NumUsers after update = %d", s.NumUsers())
	}
}

// TestAddUsersByNameAssignsNextID: a new name gets one past the highest id
// ever registered, by either door — and the server that recovered, restored
// or adopted the same history hands out the same next id as the live one.
func TestAddUsersByNameAssignsNextID(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	byName := func(s *Server, want []UserID, names ...string) {
		t.Helper()
		got, err := s.AddUsersByName(5, names...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("AddUsersByName(%q) = %v, want %v", names, got, want)
		}
	}
	byID := func(users ...User) {
		t.Helper()
		if err := s.AddUsers(users...); err != nil {
			t.Fatal(err)
		}
	}
	byName(s, []UserID{0, 1}, "a", "b")
	byID(User{ID: 7, Capacity: 1}, User{ID: 3, Capacity: 1, Name: "c"})
	byName(s, []UserID{8, 0, 9, 3, 8}, "d", "a", "e", "c", "d")
	byID(User{ID: 4, Capacity: 1}) // below the highest: the next id stays
	byID(User{ID: 9, Capacity: 2}) // a capacity update registers nobody
	byName(s, []UserID{10}, "f")
	byID(User{ID: 40, Capacity: 1}, User{ID: 20, Capacity: 1})

	replayed, err := NewServer(WithDurability(copyDataDir(t, dir), pol))
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.st.Load().journal.Close()
	loaded, err := LoadServer(bytes.NewReader(saveBytes(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadServer(bytes.NewReader(saveBytes(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	adopted.adoptRestored(restored.st.Load().State, 0)
	for _, srv := range []*Server{s, replayed, loaded, adopted} {
		byName(srv, []UserID{41, 1, 42}, "g", "b", "h")
	}
}

// TestOneNameOnTwoIDsIsRefused: a batch that gives one name to two ids is
// refused before its record is journaled. The working state is left as it
// was, so the next write publishes only its own user, and the directory
// reopens — from the snapshot Close writes, or from the log alone.
func TestOneNameOnTwoIDsIsRefused(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 1, Name: "x"}, User{ID: 1, Capacity: 1, Name: "x"}); err == nil {
		t.Fatal("a batch naming ids 0 and 1 both x was accepted")
	}
	if err := s.AddUsers(User{ID: 2, Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	check := func(srv *Server, what string) {
		t.Helper()
		if n := srv.NumUsers(); n != 1 {
			t.Errorf("%s: %d users registered, want 1", what, n)
		}
		if id, ok := srv.ResolveUser("x"); ok {
			t.Errorf("%s: x resolves to %d", what, id)
		}
	}
	check(s, "live")
	replayOnly := copyDataDir(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for what, d := range map[string]string{"reopened after Close": dir, "replayed from the log": replayOnly} {
		r, err := NewServer(WithDurability(d, pol))
		if err != nil {
			t.Errorf("%s: %v", what, err)
			continue
		}
		check(r, what)
		r.st.Load().journal.Close()
	}
}

// TestNameResolvesOnlyOncePublished: ResolveUser answers from the published
// state, so during a Write parked after its users were applied a name of the
// batch does not resolve while its user is not registered either.
func TestNameResolvesOnlyOncePublished(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	parked, release, written := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		written <- s.st.Write(func(tx *rcu.Tx[serverState]) error {
			if _, err := s.addUsers(tx, []User{{ID: 0, Capacity: 1, Name: "sensor-17"}}); err != nil {
				return err
			}
			close(parked)
			<-release
			return nil
		})
	}()
	<-parked
	id, ok := s.ResolveUser("sensor-17")
	n := s.NumUsers()
	close(release)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if ok || n != 0 {
		t.Errorf("during the parked Write sensor-17 resolves to %d (%v) with %d users registered", id, ok, n)
	}
	if id, ok := s.ResolveUser("sensor-17"); !ok || id != 0 || s.NumUsers() != 1 {
		t.Errorf("once published sensor-17 resolves to %d (%v) with %d users", id, ok, s.NumUsers())
	}
}

func TestCreateTasksValidation(t *testing.T) {
	s, _ := NewServer()
	if _, err := s.CreateTasks(TaskSpec{Description: "x", ProcTime: 0, DomainHint: 1}); err == nil {
		t.Error("zero proc time accepted")
	}
	// Described task without embedder.
	if _, err := s.CreateTasks(TaskSpec{Description: "what is the noise level", ProcTime: 1}); !errors.Is(err, ErrNoEmbedder) {
		t.Errorf("got %v, want ErrNoEmbedder", err)
	}
	ids, err := s.CreateTasks(
		TaskSpec{Description: "a", ProcTime: 1, DomainHint: 1},
		TaskSpec{Description: "b", ProcTime: 1, DomainHint: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("ids = %v", ids)
	}
	if s.Domain(0) != 1 || s.Domain(1) != 2 {
		t.Error("domain hints not applied")
	}
	if s.NumDomains() != 2 {
		t.Errorf("NumDomains = %d", s.NumDomains())
	}
}

func TestAllocateErrors(t *testing.T) {
	s, _ := NewServer()
	if _, err := s.AllocateMaxQuality(); !errors.Is(err, ErrNothingToAllocate) {
		t.Errorf("no tasks/users: %v", err)
	}
	if _, err := s.AllocateMinCost(MinCostParams{}, nil); !errors.Is(err, ErrNothingToAllocate) {
		t.Errorf("min-cost no tasks: %v", err)
	}
	_ = s.AddUsers(User{ID: 0, Capacity: 4})
	_, _ = s.CreateTasks(TaskSpec{Description: "x", ProcTime: 1, DomainHint: 1})
	if _, err := s.AllocateMinCost(MinCostParams{}, nil); err == nil {
		t.Error("nil collector accepted")
	}
}

func TestSubmitObservationsValidation(t *testing.T) {
	s, _ := NewServer()
	_ = s.AddUsers(User{ID: 0, Capacity: 4})
	_, _ = s.CreateTasks(TaskSpec{Description: "x", ProcTime: 1, DomainHint: 1})
	if err := s.SubmitObservations(Observation{Task: 5, User: 0, Value: 1}); err == nil {
		t.Error("unknown task accepted")
	}
	if err := s.SubmitObservations(Observation{Task: 0, User: 9, Value: 1}); err == nil {
		t.Error("unknown user accepted")
	}
	if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 1}); err != nil {
		t.Errorf("valid observation rejected: %v", err)
	}
}

func TestCloseTimeStepEmpty(t *testing.T) {
	s, _ := NewServer()
	if _, err := s.CloseTimeStep(); !errors.Is(err, ErrNoObservations) {
		t.Errorf("got %v, want ErrNoObservations", err)
	}
}

func TestServerLifecycleLearnsExpert(t *testing.T) {
	s, err := NewServer(WithAlpha(0.6))
	if err != nil {
		t.Fatal(err)
	}
	// Note: at least three observers per task are needed for expertise to
	// be identifiable — with exactly two, the per-task MLE of σ forces
	// both standardized residuals to 1 and no signal remains.
	if err := s.AddUsers(
		User{ID: 0, Capacity: 10},
		User{ID: 1, Capacity: 10},
		User{ID: 2, Capacity: 10},
		User{ID: 3, Capacity: 10},
	); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	const dom = DomainID(1)
	truth := func(task TaskID) float64 { return 10 + float64(task%5) }
	submitted := make(map[TaskID][]float64)

	for day := 0; day < 3; day++ {
		ids, err := s.CreateTasks(
			TaskSpec{Description: "t1", ProcTime: 1, DomainHint: dom},
			TaskSpec{Description: "t2", ProcTime: 1, DomainHint: dom},
			TaskSpec{Description: "t3", ProcTime: 1, DomainHint: dom},
			TaskSpec{Description: "t4", ProcTime: 1, DomainHint: dom},
			TaskSpec{Description: "t5", ProcTime: 1, DomainHint: dom},
			TaskSpec{Description: "t6", ProcTime: 1, DomainHint: dom},
		)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := s.AllocateMaxQuality()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Len() == 0 {
			t.Fatal("empty allocation")
		}
		for _, p := range alloc.Pairs {
			sd := 0.3 // user 0: expert
			if p.User != 0 {
				sd = 5 // everyone else: noise
			}
			v := truth(p.Task) + rng.NormFloat64()*sd
			submitted[p.Task] = append(submitted[p.Task], v)
			if err := s.SubmitObservations(Observation{Task: p.Task, User: p.User, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
		report, err := s.CloseTimeStep()
		if err != nil {
			t.Fatal(err)
		}
		if report.Day != day {
			t.Errorf("report day %d, want %d", report.Day, day)
		}
		if len(report.Estimates) != len(ids) {
			t.Errorf("day %d: %d estimates for %d tasks", day, len(report.Estimates), len(ids))
		}
	}

	if s.Day() != 3 {
		t.Errorf("Day = %d, want 3", s.Day())
	}
	if e0, e1 := s.ExpertiseInDomain(0, dom), s.ExpertiseInDomain(1, dom); e0 <= e1 {
		t.Errorf("expert (%.2f) not ranked above noise user (%.2f)", e0, e1)
	}
	// Final-day estimates must be retrievable and, in aggregate, closer to
	// the truth than the plain mean of the same observations — the
	// expertise weighting has to pay off.
	var mleErr, meanErr float64
	for id := TaskID(12); id < 18; id++ {
		est, ok := s.Truth(id)
		if !ok {
			t.Fatalf("no estimate for task %d", id)
		}
		mleErr += math.Abs(est.Value - truth(id))
		var sum float64
		for _, v := range submitted[id] {
			sum += v
		}
		meanErr += math.Abs(sum/float64(len(submitted[id])) - truth(id))
	}
	if mleErr >= meanErr {
		t.Errorf("expertise-weighted error %.2f not below plain-mean error %.2f", mleErr, meanErr)
	}
	if _, ok := s.Truth(999); ok {
		t.Error("estimate for unknown task")
	}
}

func TestServerMinCostLifecycle(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	users := make([]User, 12)
	for i := range users {
		users[i] = User{ID: UserID(i), Capacity: 6}
	}
	if err := s.AddUsers(users...); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2))
	// Warm-up day with max-quality so expertise exists.
	warmIDs, _ := s.CreateTasks(
		TaskSpec{Description: "w1", ProcTime: 1, DomainHint: 1},
		TaskSpec{Description: "w2", ProcTime: 1, DomainHint: 1},
	)
	alloc, err := s.AllocateMaxQuality()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range alloc.Pairs {
		_ = s.SubmitObservations(Observation{Task: p.Task, User: p.User, Value: 5 + rng.NormFloat64()})
	}
	if _, err := s.CloseTimeStep(); err != nil {
		t.Fatal(err)
	}
	_ = warmIDs

	ids, err := s.CreateTasks(
		TaskSpec{Description: "m1", ProcTime: 1, Cost: 1, DomainHint: 1},
		TaskSpec{Description: "m2", ProcTime: 1, Cost: 1, DomainHint: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	collected := 0
	out, err := s.AllocateMinCost(MinCostParams{EpsBar: 0.5, ConfAlpha: 0.05, IterBudget: 4},
		func(pairs []Pair) ([]Observation, error) {
			obs := make([]Observation, 0, len(pairs))
			for _, p := range pairs {
				collected++
				obs = append(obs, Observation{Task: p.Task, User: p.User, Value: 7 + rng.NormFloat64()*0.5})
			}
			return obs, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Allocation.Len() == 0 || collected != out.Allocation.Len() {
		t.Errorf("allocated %d, collected %d", out.Allocation.Len(), collected)
	}
	if out.Cost <= 0 {
		t.Errorf("cost = %g", out.Cost)
	}

	// CloseTimeStep finalizes using the observations collected inside the
	// min-cost loop — no re-submission needed.
	report, err := s.CloseTimeStep()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, est := range report.Estimates {
		for _, id := range ids {
			if est.Task == id {
				found++
			}
		}
	}
	if found != len(ids) {
		t.Errorf("estimates cover %d of %d min-cost tasks", found, len(ids))
	}
}

// TestMinCostCollectorDoesNotStallWriters: while a Collector waits on its
// devices, the node keeps taking writes. The collector blocks on an AddUsers
// and a SubmitObservations of its own; both must return within 2 s, and the
// durable directory must replay to the live state, the round's batches and
// the concurrent writes included.
func TestMinCostCollectorDoesNotStallWriters(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}, User{ID: 2, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}, TaskSpec{DomainHint: 2, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	rounds, collected := 0, 0
	_, err = s.AllocateMinCost(MinCostParams{}, func(pairs []Pair) ([]Observation, error) {
		if rounds++; rounds == 1 {
			done := make(chan error, 2)
			go func() { done <- s.AddUsers(User{ID: 9, Capacity: 1}) }()
			go func() { done <- s.SubmitObservations(Observation{Task: 0, User: 2, Value: 3}) }()
			for range 2 {
				select {
				case err := <-done:
					if err != nil {
						return nil, err
					}
				case <-time.After(2 * time.Second):
					return nil, errors.New("a write waited 2 s on the min-cost round")
				}
			}
		}
		obs := make([]Observation, 0, len(pairs))
		for _, p := range pairs {
			obs = append(obs, Observation{Task: p.Task, User: p.User, Value: 4})
		}
		collected += len(obs)
		return obs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumUsers(); got != 4 {
		t.Errorf("%d users after the round, want 4", got)
	}
	if got := s.st.Load().Counts().Observations; got != collected+1 {
		t.Errorf("%d observations in the open day, want the %d collected and the concurrent one", got, collected)
	}
	want := saveBytes(t, s)
	r, err := NewServer(WithDurability(copyDataDir(t, dir), pol))
	if err != nil {
		t.Fatal(err)
	}
	defer r.st.Load().journal.Close()
	if got := saveBytes(t, r); !bytes.Equal(got, want) {
		t.Error("the data directory does not replay to the live state")
	}
}

// TestStepReportCountsTheWholeDay: a StepReport's NewDomains and
// MergedDomains are what every create of the closed day did, whatever order
// the day's described and hinted creates came in, and nothing on a day with
// no create.
func TestStepReportCountsTheWholeDay(t *testing.T) {
	described := dataset.SurveyLike(11).Tasks
	run := func(hintedAfter bool) []StepReport {
		s, err := NewServer(WithEmbedder(embedding.NewHashEmbedder(16, 7)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddUsers(User{ID: 0, Capacity: 8}); err != nil {
			t.Fatal(err)
		}
		var reports []StepReport
		for day := 0; day < 4; day++ {
			if day < 3 {
				specs := make([]TaskSpec, 0, 20)
				for _, task := range described[day*20 : (day+1)*20] {
					specs = append(specs, TaskSpec{Description: task.Description, ProcTime: 1})
				}
				ids, err := s.CreateTasks(specs...)
				if err == nil && hintedAfter {
					_, err = s.CreateTasks(TaskSpec{ProcTime: 1, DomainHint: 99})
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := s.SubmitObservations(Observation{Task: ids[0], User: 0, Value: 1}); err != nil {
					t.Fatal(err)
				}
			} else if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 1}); err != nil {
				t.Fatal(err)
			}
			rep, err := s.CloseTimeStep()
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		return reports
	}
	alone, withHinted := run(false), run(true)
	merged := 0
	for day := range alone {
		a, b := alone[day], withHinted[day]
		if !slices.Equal(a.NewDomains, b.NewDomains) || a.MergedDomains != b.MergedDomains {
			t.Errorf("day %d: a hinted create after the described one reports new %v, merged %d; want new %v, merged %d",
				day, b.NewDomains, b.MergedDomains, a.NewDomains, a.MergedDomains)
		}
		merged += a.MergedDomains
	}
	if len(alone[0].NewDomains) == 0 || merged == 0 {
		t.Fatalf("script too tame: day 0 found %v, %d merges in all", alone[0].NewDomains, merged)
	}
	if last := alone[3]; len(last.NewDomains) != 0 || last.MergedDomains != 0 {
		t.Errorf("a day with no create reports new %v, merged %d; want none", last.NewDomains, last.MergedDomains)
	}
}

var (
	rootEmbOnce sync.Once
	rootEmb     Embedder
	rootEmbErr  error
)

func rootTestEmbedder(t *testing.T) Embedder {
	t.Helper()
	rootEmbOnce.Do(func() {
		corpus := embedding.GenerateCorpus(embedding.BuiltinDomains, embedding.CorpusConfig{
			Seed:               1,
			SentencesPerDomain: 120,
		})
		rootEmb, rootEmbErr = embedding.Train(corpus, embedding.TrainConfig{Dim: 24, Epochs: 3, Seed: 2})
	})
	if rootEmbErr != nil {
		t.Fatal(rootEmbErr)
	}
	return rootEmb
}

func TestServerSemanticClustering(t *testing.T) {
	s, err := NewServer(WithEmbedder(rootTestEmbedder(t)), WithGamma(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.CreateTasks(
		TaskSpec{Description: "What is the noise level around the train station?", ProcTime: 1},
		TaskSpec{Description: "What is the decibel reading at the construction site?", ProcTime: 1},
		TaskSpec{Description: "What is the retail price at the local supermarket?", ProcTime: 1},
		TaskSpec{Description: "What is the grocery price at the farmers market?", ProcTime: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Domain(ids[0]) != s.Domain(ids[1]) {
		t.Error("two noise tasks in different domains")
	}
	if s.Domain(ids[2]) != s.Domain(ids[3]) {
		t.Error("two price tasks in different domains")
	}
	if s.Domain(ids[0]) == s.Domain(ids[2]) {
		t.Error("noise and price tasks share a domain")
	}
}

func TestTrainEmbedderAndBuiltinCorpus(t *testing.T) {
	corpus := embedding.GenerateCorpus(embedding.BuiltinDomains, embedding.CorpusConfig{Seed: 1})
	if len(corpus) == 0 {
		t.Fatal("empty builtin corpus")
	}
	emb, err := TrainEmbedder(corpus[:200], 1)
	if err != nil {
		t.Fatal(err)
	}
	if emb.Dim() <= 0 {
		t.Error("bad embedder dimensionality")
	}
}

// TestServerParallelismEquivalence drives two identical servers — one
// pinned to the sequential path, one with an explicit worker pool — through
// a full day (allocate, observe, close) and requires bit-identical truth
// estimates and allocations out of both.
func TestServerParallelismEquivalence(t *testing.T) {
	run := func(parallelism int) (*Allocation, StepReport) {
		s, err := NewServer(WithParallelism(parallelism))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 12; u++ {
			if err := s.AddUsers(User{ID: UserID(u), Capacity: 6}); err != nil {
				t.Fatal(err)
			}
		}
		specs := make([]TaskSpec, 30)
		for j := range specs {
			specs[j] = TaskSpec{Description: "t", ProcTime: 1, DomainHint: DomainID(j%3 + 1)}
		}
		if _, err := s.CreateTasks(specs...); err != nil {
			t.Fatal(err)
		}
		alloc, err := s.AllocateMaxQuality()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for _, p := range alloc.Pairs {
			err := s.SubmitObservations(Observation{
				Task: p.Task, User: p.User,
				Value: float64(int(p.Task)%7) + rng.NormFloat64(),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		report, err := s.CloseTimeStep()
		if err != nil {
			t.Fatal(err)
		}
		return alloc, report
	}

	seqAlloc, seqReport := run(1)
	parAlloc, parReport := run(4)
	if len(seqAlloc.Pairs) != len(parAlloc.Pairs) {
		t.Fatalf("allocations differ: %d vs %d pairs", len(seqAlloc.Pairs), len(parAlloc.Pairs))
	}
	for i := range seqAlloc.Pairs {
		if seqAlloc.Pairs[i] != parAlloc.Pairs[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
	if len(seqReport.Estimates) != len(parReport.Estimates) {
		t.Fatalf("estimate counts differ")
	}
	for i, e := range seqReport.Estimates {
		p := parReport.Estimates[i]
		if e.Value != p.Value || e.Base != p.Base {
			t.Fatalf("estimate for task %d differs: %v/%v vs %v/%v", e.Task, e.Value, e.Base, p.Value, p.Base)
		}
	}
	if _, err := NewServer(WithParallelism(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
}
