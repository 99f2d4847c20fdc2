// Command eta2sim runs one crowdsourcing simulation — dataset × method ×
// parameters — and prints its per-day metrics, mirroring a single cell of
// the paper's evaluation grid.
//
// Usage:
//
//	eta2sim -dataset synthetic -method eta2 -days 5 -tau 12
//	eta2sim -dataset survey -method truthfinder
//	eta2sim -dataset sfv -method eta2-mc -budget 80
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"

	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/obs"
	"eta2/internal/simulation"
)

func main() {
	// Diagnostics go to stderr as structured logs; the per-day metrics
	// table stays on stdout.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	os.Exit(run())
}

func run() int {
	var (
		dsName  = flag.String("dataset", "synthetic", "dataset: synthetic, survey, sfv")
		method  = flag.String("method", "eta2", "method: eta2, eta2-mc, hubs, avglog, truthfinder, baseline")
		days    = flag.Int("days", 5, "number of simulated days")
		seed    = flag.Int64("seed", 1, "random seed")
		tau     = flag.Float64("tau", 12, "average user processing capability (hours/day)")
		alpha   = flag.Float64("alpha", 0.5, "expertise decay factor")
		gamma   = flag.Float64("gamma", 0.5, "clustering termination parameter")
		budget  = flag.Float64("budget", 60, "per-iteration cost cap c° (eta2-mc)")
		bias    = flag.Float64("bias", 0, "fraction of non-normal (uniform) observations")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("eta2sim %s %s\n", obs.Version(), runtime.Version())
		return 0
	}

	m, ok := parseMethod(*method)
	if !ok {
		slog.Error("unknown method", "method", *method)
		return 2
	}

	ds, err := makeDataset(*dsName, *seed, *tau)
	if err != nil {
		slog.Error("load dataset", "err", err)
		return 2
	}

	cfg := simulation.Config{
		Method:      m,
		Days:        *days,
		Seed:        *seed,
		Alpha:       *alpha,
		Gamma:       *gamma,
		IterBudget:  *budget,
		Observation: dataset.ObservationModel{BiasFraction: *bias},
	}
	if !ds.DomainsKnown {
		emb, err := embedding.Builtin()
		if err != nil {
			slog.Error("load embedder", "err", err)
			return 1
		}
		cfg.Embedder = emb
	}

	res, err := simulation.Run(ds, cfg)
	if err != nil {
		slog.Error("simulation failed", "err", err)
		return 1
	}

	fmt.Printf("dataset=%s users=%d tasks=%d method=%v days=%d tau=%.0f\n",
		ds.Name, len(ds.Users), len(ds.Tasks), res.Method, *days, *tau)
	fmt.Printf("%6s%10s%12s%10s%8s\n", "day", "tasks", "error", "cost", "pairs")
	for _, d := range res.Days {
		fmt.Printf("%6d%10d%12.4f%10.0f%8d\n", d.Day, d.NumTasks, d.Error, d.Cost, d.Pairs)
	}
	fmt.Printf("overall error: %.4f   total cost: %.0f\n", res.OverallError, res.TotalCost)
	if !math.IsNaN(res.ExpertiseError) {
		fmt.Printf("expertise estimation error: %.4f\n", res.ExpertiseError)
	}
	return 0
}

func parseMethod(s string) (simulation.Method, bool) {
	switch s {
	case "eta2":
		return simulation.MethodETA2, true
	case "eta2-mc", "mc":
		return simulation.MethodETA2MC, true
	case "hubs":
		return simulation.MethodHubsAuthorities, true
	case "avglog":
		return simulation.MethodAverageLog, true
	case "truthfinder":
		return simulation.MethodTruthFinder, true
	case "baseline", "mean":
		return simulation.MethodBaseline, true
	default:
		return 0, false
	}
}

func makeDataset(name string, seed int64, tau float64) (*dataset.Dataset, error) {
	switch name {
	case "synthetic":
		return dataset.Synthetic(dataset.SyntheticConfig{Seed: seed, AvgCapacity: tau}), nil
	case "survey":
		cfg := dataset.SurveyConfig(seed)
		cfg.AvgCapacity = tau
		return dataset.Textual(cfg), nil
	case "sfv":
		cfg := dataset.SFVConfig(seed)
		cfg.AvgCapacity = tau
		return dataset.Textual(cfg), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}
