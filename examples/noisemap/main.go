// Noisemap: city-scale noise mapping with description-based domain
// discovery — the motivating application of the paper's introduction.
//
// Forty volunteers with heterogeneous skills (some carry calibrated sound
// meters, some estimate traffic well, some guess) receive mixed sensing
// tasks described in natural language. The server discovers the expertise
// domains from the descriptions alone (pair-word extraction + skip-gram
// embeddings + dynamic hierarchical clustering), learns per-domain user
// expertise, and routes each task type to the right specialists.
//
// Run with: go run ./examples/noisemap
package main

import (
	"fmt"
	"log"
	"math/rand"

	"eta2"
)

// scenario domains: index 0 = acoustics, 1 = traffic, 2 = air quality.
var questions = [][]string{
	{
		"What is the noise level around the %s?",
		"What is the decibel reading at the %s?",
		"What is the sound intensity near the %s?",
	},
	{
		"What is the traffic speed on the %s?",
		"What is the congestion level at the %s?",
		"What is the vehicle count near the %s?",
	},
	{
		"What is the air quality at the %s?",
		"What is the pm25 concentration near the %s?",
		"What is the smog index around the %s?",
	},
}

var places = [][]string{
	{"train station", "construction site", "concert hall", "downtown plaza"},
	{"main bridge", "ring road", "city tunnel", "toll plaza"},
	{"industrial district", "bus depot", "riverside trail", "chemical plant"},
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	embedder, err := eta2.BuiltinEmbedder()
	if err != nil {
		return err
	}

	server, err := eta2.NewServer(
		eta2.WithEmbedder(embedder),
		eta2.WithGamma(0.5),
		eta2.WithAlpha(0.5),
	)
	if err != nil {
		return err
	}

	const nUsers = 40
	rng := rand.New(rand.NewSource(7))

	// Each volunteer is strong in exactly one of the three domains.
	skill := make([][3]float64, nUsers)
	users := make([]eta2.User, nUsers)
	for i := range users {
		users[i] = eta2.User{ID: eta2.UserID(i), Capacity: 6}
		for d := 0; d < 3; d++ {
			skill[i][d] = 0.3 + 0.4*rng.Float64()
		}
		skill[i][i%3] = 2.0 + rng.Float64() // specialist domain
	}
	if err := server.AddUsers(users...); err != nil {
		return err
	}

	truths := make(map[eta2.TaskID]float64)
	genDomain := make(map[eta2.TaskID]int)
	const base = 5.0

	for day := 0; day < 4; day++ {
		// 30 mixed tasks per day, described in natural language only.
		var specs []eta2.TaskSpec
		var domains []int
		for j := 0; j < 30; j++ {
			d := rng.Intn(3)
			q := questions[d][rng.Intn(len(questions[d]))]
			p := places[d][rng.Intn(len(places[d]))]
			specs = append(specs, eta2.TaskSpec{
				Description: fmt.Sprintf(q, p),
				ProcTime:    0.5 + rng.Float64(),
			})
			domains = append(domains, d)
		}
		ids, err := server.CreateTasks(specs...)
		if err != nil {
			return err
		}
		for k, id := range ids {
			genDomain[id] = domains[k]
			truths[id] = 40 + 40*rng.Float64() // dB / km/h / AQI scale
		}

		alloc, err := server.AllocateMaxQuality()
		if err != nil {
			return err
		}
		for _, p := range alloc.Pairs {
			u := skill[int(p.User)][genDomain[p.Task]]
			v := truths[p.Task] + rng.NormFloat64()*base/u
			if err := server.SubmitObservations(eta2.Observation{Task: p.Task, User: p.User, Value: v}); err != nil {
				return err
			}
		}

		report, err := server.CloseTimeStep()
		if err != nil {
			return err
		}

		var absErr float64
		for _, est := range report.Estimates {
			d := est.Value - truths[est.Task]
			if d < 0 {
				d = -d
			}
			absErr += d / base
		}
		fmt.Printf("day %d: %2d tasks, %2d new domains, mean normalized error %.3f\n",
			day, len(report.Estimates), len(report.NewDomains), absErr/float64(len(report.Estimates)))
	}

	fmt.Printf("\ndiscovered %d expertise domains from descriptions alone\n", server.NumDomains())

	// Show that specialists were identified: compare the learned expertise
	// of a user in their specialty vs elsewhere.
	fmt.Println("sample volunteers (learned expertise per discovered domain):")
	for _, u := range []int{0, 1, 2} {
		fmt.Printf("  volunteer %d (specialty: domain %d):", u, u%3)
		for d := eta2.DomainID(1); int(d) <= server.NumDomains(); d++ {
			fmt.Printf("  %.2f", server.ExpertiseInDomain(eta2.UserID(u), d))
		}
		fmt.Println()
	}
	return nil
}
