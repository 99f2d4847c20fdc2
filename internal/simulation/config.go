// Package simulation runs the multi-day server loop of the paper's
// Figure 1: tasks arrive each time step, are clustered into expertise
// domains, allocated to users, observed, and fed to truth analysis; user
// expertise accumulates across days. It supports ETA² (max-quality
// allocation), ETA²-mc (min-cost allocation), and the four comparison
// approaches of Sec. 6.3, and collects the metrics every figure and table
// of the evaluation is built from.
package simulation

import (
	"errors"
	"fmt"

	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/truth"
)

// Method selects the truth-analysis + task-allocation approach to simulate.
type Method int

// The available methods, matching the paper's Sec. 6.3 lineup.
const (
	MethodETA2 Method = iota + 1
	MethodETA2MC
	MethodHubsAuthorities
	MethodAverageLog
	MethodTruthFinder
	MethodBaseline
)

// String returns the paper's display name for the method.
func (m Method) String() string {
	switch m {
	case MethodETA2:
		return "ETA2"
	case MethodETA2MC:
		return "ETA2-mc"
	case MethodHubsAuthorities:
		return "Hubs and Authorities"
	case MethodAverageLog:
		return "Average-Log"
	case MethodTruthFinder:
		return "TruthFinder"
	case MethodBaseline:
		return "Baseline"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Method is the approach under test.
	Method Method
	// Days is the number of time steps; tasks are distributed evenly
	// across them (the paper uses 5). Day 0 is the warm-up with random
	// allocation.
	Days int
	// Seed drives task arrival order, allocation tie-breaks and
	// observation noise.
	Seed int64

	// Alpha is ETA²'s expertise decay factor α ∈ [0, 1].
	Alpha float64
	// Gamma is the clustering termination parameter γ ∈ [0, 1]. Ignored
	// when the dataset's domains are pre-known.
	Gamma float64
	// Epsilon is the accuracy threshold ε of the allocation objective
	// (default 0.1).
	Epsilon float64

	// EpsBar, ConfAlpha and IterBudget parameterize min-cost allocation:
	// quality |μ̂−μ|/σ < EpsBar with confidence 1−ConfAlpha, spending at
	// most IterBudget per iteration (defaults 0.5, 0.05, and 60).
	EpsBar     float64
	ConfAlpha  float64
	IterBudget float64

	// Observation is the observation-synthesis model (bias injection).
	Observation dataset.ObservationModel
	// Truth tunes the MLE iteration.
	Truth truth.Config

	// Embedder supplies word vectors for textual datasets. Required when
	// the dataset's domains are not pre-known.
	Embedder embedding.Embedder

	// KeepObservations retains every synthesized observation in the
	// result (needed by the Fig. 2/7 experiments; off by default to save
	// memory in sweeps).
	KeepObservations bool
}

func (c *Config) applyDefaults() {
	if c.Method == 0 {
		c.Method = MethodETA2
	}
	if c.Days <= 0 {
		c.Days = 5
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.5
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.5
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.EpsBar <= 0 {
		c.EpsBar = 0.5
	}
	if c.ConfAlpha <= 0 {
		c.ConfAlpha = 0.05
	}
	if c.IterBudget <= 0 {
		c.IterBudget = 60
	}
}

// ErrNeedEmbedder is returned when a textual dataset is simulated without
// an embedder.
var ErrNeedEmbedder = errors.New("simulation: textual dataset requires an embedder")
