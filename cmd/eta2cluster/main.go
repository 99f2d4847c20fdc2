// Command eta2cluster demonstrates ETA²'s task-expertise identification: it
// reads task descriptions (one per line from stdin, or generated samples
// with -demo), extracts (Query, Target) pairs with the pair-word method,
// embeds them with skip-gram vectors, and clusters them into expertise
// domains with dynamic hierarchical clustering.
//
// Usage:
//
//	echo "What is the noise level around the municipal building?" | eta2cluster
//	eta2cluster -demo 40 -gamma 0.5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"strings"

	"eta2/internal/core"
	"eta2/internal/embedding"
	"eta2/internal/loop"
	"eta2/internal/obs"
	"eta2/internal/semantic"
	"eta2/internal/stats"
)

func main() {
	// Diagnostics go to stderr as structured logs; clustering results stay
	// on stdout.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	os.Exit(run())
}

func run() int {
	var (
		gamma   = flag.Float64("gamma", 0.5, "clustering termination parameter in [0, 1]")
		demo    = flag.Int("demo", 0, "generate N sample descriptions instead of reading stdin")
		seed    = flag.Int64("seed", 1, "random seed for -demo")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("eta2cluster %s %s\n", obs.Version(), runtime.Version())
		return 0
	}

	var descriptions []string
	if *demo > 0 {
		descriptions = demoDescriptions(*demo, *seed)
	} else {
		scanner := bufio.NewScanner(os.Stdin)
		for scanner.Scan() {
			line := strings.TrimSpace(scanner.Text())
			if line != "" {
				descriptions = append(descriptions, line)
			}
		}
		if err := scanner.Err(); err != nil {
			slog.Error("read stdin", "err", err)
			return 1
		}
	}
	if len(descriptions) == 0 {
		slog.Error("no descriptions (pipe one per line, or use -demo N)")
		return 2
	}

	slog.Info("training skip-gram embeddings")
	model, err := embedding.TrainBuiltin()
	if err != nil {
		slog.Error("train embedder", "err", err)
		return 1
	}

	domains, err := loop.NewDomains(model, *gamma)
	if err != nil {
		slog.Error("create clustering engine", "err", err)
		return 1
	}
	ids := make([]core.TaskID, len(descriptions))
	vectors := make([]semantic.TaskVector, len(descriptions))
	for i, d := range descriptions {
		pair, err := semantic.ExtractPair(d)
		if err != nil {
			slog.Error("extract pair", "description", d, "err", err)
			return 1
		}
		fmt.Printf("%-70q  Query=%v Target=%v\n", d, pair.Query, pair.Target)
		vectors[i], err = domains.Vectorize(d)
		if err != nil {
			slog.Error("vectorize", "description", d, "err", err)
			return 1
		}
		ids[i] = core.TaskID(i)
	}

	// One batch into an empty identifier: there are no established domains
	// to merge yet, and the clusterer's own member lists are the result.
	if _, err := domains.Identify(ids, vectors, make([]core.DomainID, len(ids)), func(_, _ core.DomainID) {}); err != nil {
		slog.Error("cluster descriptions", "err", err)
		return 1
	}
	eng := domains.Engine()
	byDomain := eng.Members()
	sorted := make([]core.DomainID, 0, len(byDomain))
	for d := range byDomain {
		sorted = append(sorted, d)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	fmt.Printf("\n%d expertise domains (gamma=%.2f, d*=%.3f, silhouette=%.3f):\n",
		len(sorted), *gamma, eng.DStar(), eng.Silhouette())
	for _, d := range sorted {
		fmt.Printf("domain %d:\n", d)
		for _, item := range byDomain[d] {
			fmt.Printf("  %s\n", descriptions[item])
		}
	}
	return 0
}

func demoDescriptions(n int, seed int64) []string {
	rng := stats.NewRNG(seed)
	templates := []string{
		"What is the %s at the %s?",
		"How many %s near the %s today?",
		"Please report the %s of the %s.",
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		dom := embedding.BuiltinDomains[rng.Intn(len(embedding.BuiltinDomains))]
		q := dom.QueryTerms[rng.Intn(len(dom.QueryTerms))]
		t := dom.TargetTerms[rng.Intn(len(dom.TargetTerms))]
		out = append(out, fmt.Sprintf(templates[rng.Intn(len(templates))], q, t))
	}
	return out
}
