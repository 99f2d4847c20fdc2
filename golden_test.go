package eta2

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"

	"eta2/internal/dataset"
	"eta2/internal/embedding"
)

// goldenSnapshotHash is FNV-1a over the SaveStateBinary bytes of
// goldenServer. It was 0xf9b09d72cc173d3f from commit 92bd220 (before the
// server and the simulation shared their step bodies) until the clusterer
// began building a new task's linkage to the existing domains from
// per-domain statistics instead of summing pair distances. The snapshot
// carries the linkage matrix, so that moved it: decoded side by side, the
// 3fa5fae snapshot and its successor are equal in everything outside the cluster
// section, and inside it in d*, the slot order, every slot's domain and
// member list; 33 of the 78 domain-pair linkages differ, by at most 6.2e-16
// relative. It was 0xfe2d08e0907030f8 until the min-cost round's collected
// batches began entering through SubmitObservations, which stamps them with
// the open day: the 80 min-cost observations' day varints went from 0 to 2
// (0x00 → 0x04) and the CRC with them; the file's size and every other byte
// stayed.
const goldenSnapshotHash uint64 = 0xf6de6f107af07711

// goldenServer scripts an in-memory server through described and hinted
// tasks, two closed days on max-quality allocation, and one min-cost round
// left open, so clustering, domain merges, the warm-up close, the dynamic
// update and Algorithm 2's estimate side all leave their mark on the state.
func goldenServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(WithEmbedder(embedding.NewHashEmbedder(16, 7)), WithAlpha(0.7))
	if err != nil {
		t.Fatal(err)
	}
	users := make([]User, 10)
	for i := range users {
		users[i] = User{ID: UserID(i), Capacity: 8}
	}
	if err := s.AddUsers(users...); err != nil {
		t.Fatal(err)
	}
	described := dataset.SurveyLike(11).Tasks
	rng := rand.New(rand.NewSource(9))
	observe := func(p Pair) Observation {
		return Observation{Task: p.Task, User: p.User, Value: float64(p.Task%7)*3 + rng.NormFloat64()/(1+float64(p.User))}
	}
	specs := func(day int) []TaskSpec {
		out := []TaskSpec{{Description: "hinted", ProcTime: 1, DomainHint: 40}}
		for i, t := range described[day*20 : (day+1)*20] {
			out = append(out, TaskSpec{Description: t.Description, ProcTime: 1, Cost: 1 + float64(i%3)})
		}
		return out
	}
	merges := 0
	for day := 0; day < 2; day++ {
		if _, err := s.CreateTasks(specs(day)...); err != nil {
			t.Fatal(err)
		}
		alloc, err := s.AllocateMaxQuality()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range alloc.Pairs {
			if err := s.SubmitObservations(observe(p)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.CloseTimeStep()
		if err != nil {
			t.Fatal(err)
		}
		merges += rep.MergedDomains
	}
	if _, err := s.CreateTasks(specs(2)...); err != nil {
		t.Fatal(err)
	}
	out, err := s.AllocateMinCost(MinCostParams{IterBudget: 12}, func(pairs []Pair) ([]Observation, error) {
		obs := make([]Observation, 0, len(pairs))
		for _, p := range pairs {
			obs = append(obs, observe(p))
		}
		return obs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations < 2 || merges == 0 {
		t.Fatalf("script too tame to pin anything: %d min-cost iterations, %d domain merges", out.Iterations, merges)
	}
	return s
}

func TestSnapshotBytesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenServer(t).SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := h.Sum64(); got != goldenSnapshotHash {
		t.Errorf("snapshot of the scripted server hashes to %#x, want %#x", got, goldenSnapshotHash)
	}
}
