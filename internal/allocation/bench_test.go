package allocation

import (
	"testing"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// domainInput builds the server's shape of problem: every task belongs to
// one of nDomains domains, a user's expertise is per (user, domain) and a
// fifth of those are the default 1.0 (nothing observed yet), and Expertise
// reads through two maps the way the server's closure does
// (store.Expertise(u, domainOf[t])). Proc times are 1–2 h. User 0 has no
// capacity; the others have capLo..capHi hours.
func domainInput(seed int64, nUsers, nTasks, nDomains int, capLo, capHi float64) Input {
	rng := stats.NewRNG(seed)
	users := make([]core.User, nUsers)
	exp := make(map[core.UserID]map[int]float64, nUsers)
	for i := range users {
		users[i] = core.User{ID: core.UserID(i), Capacity: rng.Uniform(capLo, capHi)}
		exp[users[i].ID] = make(map[int]float64, nDomains)
		for d := 0; d < nDomains; d++ {
			if u := rng.Uniform(0.2, 4); rng.Uniform(0, 1) >= 0.2 {
				exp[users[i].ID][d] = u
			}
		}
	}
	users[0].Capacity = 0
	tasks := make([]core.Task, nTasks)
	domainOf := make(map[core.TaskID]int, nTasks)
	for j := range tasks {
		tasks[j] = core.Task{ID: core.TaskID(j), ProcTime: rng.Uniform(1, 2), Cost: 1}
		domainOf[tasks[j].ID] = j % nDomains
	}
	return Input{
		Users: users,
		Tasks: tasks,
		Expertise: func(u core.UserID, t core.TaskID) float64 {
			if v, ok := exp[u][domainOf[t]]; ok {
				return v
			}
			return 1
		},
	}
}

var benchSink MaxQualityResult

func benchMaxQuality(b *testing.B, in Input) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MaxQuality(in, MaxQualityOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

// BenchmarkMaxQualityWide700 is the benchmark's loop-wide day: capacity
// binds, so about 8 of 700 users end up on each task.
func BenchmarkMaxQualityWide700(b *testing.B) {
	benchMaxQuality(b, domainInput(1, 701, 700, 8, 8, 16))
}

// BenchmarkMaxQualitySlack5000x500 never runs out of capacity: every
// candidate of every task is selected, the shape that used to outlast
// eta2server's 60 s WriteTimeout.
func BenchmarkMaxQualitySlack5000x500(b *testing.B) {
	benchMaxQuality(b, domainInput(2, 5001, 500, 8, 1000, 1001))
}
