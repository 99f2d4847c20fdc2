// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 2.3 and Sec. 6). Each experiment is a function returning
// a typed result with a Render method that prints the same rows/series the
// paper reports. Absolute numbers differ from the paper (the substrate is a
// simulator, not the authors' datasets), but the shapes — who wins, by
// roughly what factor, where crossovers fall — are preserved; see
// EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/simulation"
	"eta2/internal/stats"
)

// Options tunes how much work an experiment does.
type Options struct {
	// Runs is the number of random seeds averaged per data point. The
	// paper uses 100; the default here is 5, which already yields stable
	// shapes. Raise it (e.g. via the eta2bench -runs flag) for
	// publication-grade smoothness.
	Runs int
	// Seed is the base seed; run r of a sweep uses Seed + r.
	Seed int64
	// Days is the simulation horizon (default 5, as in the paper).
	Days int
	// Parallel bounds how many seeds run concurrently (default
	// GOMAXPROCS). Simulation runs are independent — each builds its own
	// dataset and server state — so seed-level parallelism is safe.
	Parallel int
}

func (o *Options) applyDefaults() {
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Days <= 0 {
		o.Days = 5
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
}

// runSeeds executes fn once per seed (opts.Seed+0 … opts.Seed+Runs−1),
// at most opts.Parallel at a time, and returns the results in seed order.
// The first error wins; remaining results are still awaited so no goroutine
// outlives the call.
func runSeeds[T any](opts Options, fn func(seed int64) (T, error)) ([]T, error) {
	opts.applyDefaults()
	out := make([]T, opts.Runs)
	errs := make([]error, opts.Runs)
	sem := make(chan struct{}, opts.Parallel)
	var wg sync.WaitGroup
	for r := 0; r < opts.Runs; r++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[r], errs[r] = fn(opts.Seed + int64(r))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DatasetNames are the three evaluation datasets, in the paper's order.
var DatasetNames = []string{"survey", "sfv", "synthetic"}

// sharedModel caches the skip-gram model: every textual experiment needs
// the same embeddings.
var (
	sharedOnce  sync.Once
	sharedEmbed *embedding.Model
	sharedErr   error
)

// SharedEmbedder returns a process-wide copy of the builtin skip-gram model.
func SharedEmbedder() (embedding.Embedder, error) {
	sharedOnce.Do(func() {
		sharedEmbed, sharedErr = embedding.Builtin()
	})
	if sharedErr != nil {
		return nil, fmt.Errorf("experiments: load shared embedder: %w", sharedErr)
	}
	return sharedEmbed, nil
}

// makeDataset builds one of the three evaluation datasets with the given
// average processing capability τ.
func makeDataset(name string, seed int64, tau float64) (*dataset.Dataset, error) {
	switch name {
	case "survey":
		cfg := dataset.SurveyConfig(seed)
		if tau > 0 {
			cfg.AvgCapacity = tau
		}
		return dataset.Textual(cfg), nil
	case "sfv":
		cfg := dataset.SFVConfig(seed)
		if tau > 0 {
			cfg.AvgCapacity = tau
		}
		return dataset.Textual(cfg), nil
	case "synthetic":
		cfg := dataset.SyntheticConfig{Seed: seed}
		if tau > 0 {
			cfg.AvgCapacity = tau
		}
		return dataset.Synthetic(cfg), nil
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// simConfig assembles a simulation config with the shared embedder when the
// dataset needs one.
func simConfig(ds *dataset.Dataset, method simulation.Method, seed int64, opts Options) (simulation.Config, error) {
	cfg := simulation.Config{
		Method: method,
		Days:   opts.Days,
		Seed:   seed,
	}
	if !ds.DomainsKnown {
		emb, err := SharedEmbedder()
		if err != nil {
			return simulation.Config{}, err
		}
		cfg.Embedder = emb
	}
	return cfg, nil
}

// averageRuns executes fn for opts.Runs seeds (in parallel) and returns the
// mean of its returned values (NaN-valued runs are skipped).
func averageRuns(opts Options, fn func(seed int64) (float64, error)) (float64, error) {
	all, err := runSeeds(opts, fn)
	if err != nil {
		return 0, err
	}
	var vals []float64
	for _, v := range all {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return stats.Mean(vals), nil
}

// fullObservations has every user observe every task once — the shape of
// the paper's raw survey/SFV data, where participants answered all
// questions. Used by the Fig. 2 and Table 1 data-distribution experiments,
// which predate any allocation.
func fullObservations(ds *dataset.Dataset, seed int64) [][]float64 {
	rng := stats.NewRNG(seed)
	model := dataset.ObservationModel{}
	perTask := make([][]float64, len(ds.Tasks))
	for j, t := range ds.Tasks {
		vals := make([]float64, len(ds.Users))
		for i := range ds.Users {
			vals[i] = model.Observe(t, ds.TrueExpertise[i][ds.GenDomain[j]], rng)
		}
		perTask[j] = vals
	}
	return perTask
}

// column formats a fixed-width table cell.
func cell(w int, format string, args ...any) string {
	return fmt.Sprintf("%-*s", w, fmt.Sprintf(format, args...))
}
