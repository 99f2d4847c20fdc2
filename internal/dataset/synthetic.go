package dataset

import (
	"eta2/internal/core"
	"eta2/internal/stats"
)

// SyntheticConfig parameterizes the paper's synthetic dataset generator
// (Sec. 6.1.3). The zero value reproduces the paper's setting exactly.
type SyntheticConfig struct {
	// Seed drives all randomness.
	Seed int64
	// NumUsers defaults to 100.
	NumUsers int
	// NumTasks defaults to 1000.
	NumTasks int
	// NumDomains defaults to 8.
	NumDomains int
	// MaxExpertise is the upper bound of the uniform expertise draw
	// (paper: u ∈ [0, 3]).
	MaxExpertise float64
	// TruthLo/TruthHi bound the uniform ground-truth draw (paper: [0, 20]).
	TruthLo, TruthHi float64
	// BaseLo/BaseHi bound the uniform base-number draw (paper: [0.5, 5]).
	BaseLo, BaseHi float64
	// ProcTimeLo/ProcTimeHi bound the uniform processing-time draw
	// (paper Sec. 6.2: [0.5, 1.5] hours for the synthetic dataset).
	ProcTimeLo, ProcTimeHi float64
	// AvgCapacity is τ, the mean user processing capability; capabilities
	// are drawn from [τ−4, τ+4] (paper Sec. 6.2, default τ = 12).
	AvgCapacity float64
	// Cost is the per-recruitment cost c_j (paper Sec. 6.4.3: 1 unit).
	Cost float64
}

func (c *SyntheticConfig) applyDefaults() {
	if c.NumUsers <= 0 {
		c.NumUsers = 100
	}
	if c.NumTasks <= 0 {
		c.NumTasks = 1000
	}
	if c.NumDomains <= 0 {
		c.NumDomains = 8
	}
	if c.MaxExpertise <= 0 {
		c.MaxExpertise = 3
	}
	if c.TruthHi <= c.TruthLo {
		c.TruthLo, c.TruthHi = 0, 20
	}
	if c.BaseHi <= c.BaseLo {
		c.BaseLo, c.BaseHi = 0.5, 5
	}
	if c.ProcTimeHi <= c.ProcTimeLo {
		c.ProcTimeLo, c.ProcTimeHi = 0.5, 1.5
	}
	if c.AvgCapacity <= 0 {
		c.AvgCapacity = 12
	}
	if c.Cost <= 0 {
		c.Cost = 1
	}
}

// Synthetic generates the paper's synthetic dataset: expertise domains are
// pre-known to the server (Task.Domain is set), so no clustering is needed.
func Synthetic(cfg SyntheticConfig) *Dataset {
	cfg.applyDefaults()
	rng := stats.NewRNG(cfg.Seed)

	users := capacities(cfg.NumUsers, cfg.AvgCapacity, 4, rng)

	// One flat backing array for all expertise rows: at the 1M-user tier
	// a slice-per-user layout costs a million small allocations and
	// pointer-chases; carving rows out of a single block keeps the
	// generator's allocation count independent of user count.
	flat := make([]float64, cfg.NumUsers*cfg.NumDomains)
	for i := range flat {
		flat[i] = rng.Uniform(0, cfg.MaxExpertise)
	}
	expertise := make([][]float64, cfg.NumUsers)
	for i := range expertise {
		expertise[i] = flat[i*cfg.NumDomains : (i+1)*cfg.NumDomains]
	}

	tasks := make([]core.Task, cfg.NumTasks)
	domains := make([]int, cfg.NumTasks)
	for j := range tasks {
		d := rng.Intn(cfg.NumDomains)
		domains[j] = d
		tasks[j] = core.Task{
			ID:       core.TaskID(j),
			Domain:   core.DomainID(d + 1), // pre-known to the server
			ProcTime: rng.Uniform(cfg.ProcTimeLo, cfg.ProcTimeHi),
			Cost:     cfg.Cost,
			Truth:    rng.Uniform(cfg.TruthLo, cfg.TruthHi),
			Base:     rng.Uniform(cfg.BaseLo, cfg.BaseHi),
		}
	}

	return &Dataset{
		Name:          "synthetic",
		Users:         users,
		Tasks:         tasks,
		GenDomain:     domains,
		TrueExpertise: expertise,
		NumDomains:    cfg.NumDomains,
		DomainsKnown:  true,
	}
}
