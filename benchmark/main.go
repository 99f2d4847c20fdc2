// Command benchmark is the repository's whole-loop benchmark: it builds
// cmd/eta2server, runs it as a child process on a fresh data directory and
// drives the paper's per-time-step loop (create tasks, allocate, ingest,
// close, read back, crash, recover, replicate) over HTTP, on four seeded
// workloads. README.md in this directory says what each workload is for
// and how the metrics relate.
//
//	go run ./benchmark -workload all -seed 1            # every end-to-end metric, per workload
//	go run ./benchmark -workload all -seed 1 -traced    # plus the traced run: per-layer metrics, span files
//	go run ./benchmark -repeat 5                        # noise calibration table
//	go run ./benchmark -workload loop-wide -seed 3 -seconds 15 -trace 0   # one run, result as a JSON last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed of the committed baseline tables.
const defaultSeed = 1

var verbose bool

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 0, "length of the measured window the workload is sized for (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 runs the traced pass only and prints the per-layer metrics")
		traced   = flag.Bool("traced", false, "run the untraced pass and then the traced pass")
		repeat   = flag.Int("repeat", 0, "run the selected workloads this many times and print each metric's median, quartiles and spread")
		smoke    = flag.Bool("smoke", false, "tiny sizing for tests")
	)
	flag.BoolVar(&verbose, "v", false, "print every time step's phases")
	spinner := flag.Bool("spin", false, "internal: run as a keep-warm spinner")
	flag.Parse()
	if *spinner {
		spin()
	}
	reapOnSignal()
	code := run(*workload, *seed, *seconds, *trace == 1, *traced, *repeat, *smoke)
	children.cleanup()
	os.Exit(code)
}

func run(workload string, seed int64, seconds int, traceOnly, both bool, repeat int, smoke bool) int {
	contract, err := loadContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if seconds <= 0 {
		seconds = contract.RunSeconds
	}
	var selected []spec
	for _, sp := range specs() {
		if workload == "all" || workload == sp.name {
			selected = append(selected, sp)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
		return 2
	}
	bin, err := buildServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	env := environment(selected)
	fmt.Printf("environment: %s\n", mustJSON(env))
	keepWarm()

	if repeat > 0 {
		return calibrate(contract, selected, bin, seed, seconds, repeat, smoke)
	}

	report := fullReport{Environment: env, Seed: seed, Seconds: seconds}
	code := 0
	var last *result
	for _, sp := range selected {
		var plain *result
		if !traceOnly {
			if plain, err = runWorkload(contract, sp, bin, seed, seconds, false, smoke); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			plain.print(contract.EndToEnd)
			report.Runs = append(report.Runs, plain)
			last = plain
		}
		if traceOnly || both {
			tr, err := runWorkload(contract, sp, bin, seed, seconds, true, smoke)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (traced): %v\n", sp.name, err)
				return 1
			}
			tr.print(contract.PerLayer)
			if plain != nil {
				fmt.Printf("  traced vs untraced step_s: %+.2f %%\n", 100*(tr.Metrics["step_s"]/plain.Metrics["step_s"]-1))
			}
			report.Runs = append(report.Runs, tr)
			last = tr
		}
		if !last.Correct || (plain != nil && !plain.Correct) {
			code = 1
		}
	}
	if err := os.WriteFile(filepath.Join(outDir, "report.json"), []byte(mustJSON(report)+"\n"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The last line of standard output is the last run's result.
	list := contract.EndToEnd
	if last.Traced {
		list = contract.PerLayer
	}
	line, err := last.contractLine(list)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(line)
	return code
}

// runWorkload performs one run of one workload: set-up (several times
// over in the untraced run, for a steadier setup_s), the measured days
// with the crash and the follower on the last of them, then the metrics.
func runWorkload(contract *contract, sp spec, bin string, seed int64, seconds int, traced, smoke bool) (*result, error) {
	sp = sp.scaled(seconds)
	if smoke {
		sp = sp.smoke()
	}
	dir, err := newRunDir(sp.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{sp: sp, in: generate(sp, seed), c: newClient(), bin: bin, dir: dir, stages: map[string]*pacedResult{}}
	// setup_s is the median of several set-ups: three, or up to nine when a
	// set-up is so short that process start-up jitter is most of it.
	minSetups, maxSetups := 3, 9
	if traced || smoke {
		minSetups, maxSetups = 1, 1
	}
	if traced {
		r.tr = newTracer()
		r.sh = newShadow(r)
	}
	setupStart := time.Now()
	for k := 0; k < minSetups || (k < maxSetups && time.Since(setupStart) < time.Second); k++ {
		if err := r.setup(k); err != nil {
			return nil, err
		}
	}
	defer func() { r.primary.stop() }()
	first := 0
	if sp.seedDay {
		first = 1
	}
	for d := first; d < sp.days; d++ {
		if err := r.day(d, d == sp.days-1); err != nil {
			return nil, fmt.Errorf("day %d: %w", d, err)
		}
	}

	res := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Traced: traced, InputsSHA256: r.in.digest()}
	res.Metrics = r.endToEnd()
	r.driverLayer(res.Metrics)
	if traced {
		r.sh.finish(r, res.Metrics)
		for _, d := range contract.PerLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.Metrics[d.Name] = 0 // a layer this workload never enters
			}
		}
		path, err := r.tr.write(sp.name)
		if err != nil {
			return nil, err
		}
		res.TraceFile, res.SelfSeconds = path, r.tr.selfSeconds()
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured (%v)", name, v)
			res.Metrics[name] = 0
		}
	}
	res.Attempted, res.Failed = r.c.attempted.Load(), r.c.failed.Load()
	res.Checks = r.checks
	res.Correct = len(r.checks) == 0 && res.Failed == 0
	if msg := r.c.firstErr.Load(); msg != nil {
		res.Checks = append(res.Checks, "failed operation: "+*msg)
	}
	res.Days = len(r.days)
	res.MeasuredS = r.measured.Seconds()
	return res, nil
}

// calibrate is the noise calibration: the whole selected set, n times,
// then per metric and workload the median, the quartiles and the
// interquartile spread as a share of the median.
func calibrate(contract *contract, selected []spec, bin string, seed int64, seconds, n int, smoke bool) int {
	values := map[string]map[string][]float64{} // workload -> metric -> runs
	code := 0
	for i := 0; i < n; i++ {
		for _, sp := range selected {
			start := time.Now()
			res, err := runWorkload(contract, sp, bin, seed+int64(i), seconds, false, smoke)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s\n", sp.name, res.Seed, strings.Join(res.Checks, "; "))
				code = 1
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for _, d := range contract.EndToEnd {
				values[sp.name][d.Name] = append(values[sp.name][d.Name], res.Metrics[d.Name])
			}
			fmt.Printf("run %d/%d %s seed %d: %.1f s wall, %.1f s measured\n", i+1, n, sp.name, res.Seed, time.Since(start).Seconds(), res.MeasuredS)
			if verbose {
				fmt.Printf("  raw %s\n", mustJSON(res.Metrics))
			}
		}
	}
	fmt.Printf("\n| workload | metric | unit | q1 | median | q3 | spread | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, sp := range selected {
		for _, d := range contract.EndToEnd {
			q1, med, q3, rel := spread(values[sp.name][d.Name])
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.5g | %.1f %% | %.0f %% |\n", sp.name, d.Name, d.Unit, q1, med, q3, 100*rel, 100*d.Bound)
		}
	}
	return code
}

// ---- results ----

// result is one run's outcome. Metrics holds every metric the run computed,
// end-to-end and per-layer alike; BENCHMARK.json decides which are printed
// where.
type result struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Traced       bool               `json:"traced"`
	Correct      bool               `json:"correct"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	Checks       []string           `json:"failed_checks,omitempty"`
	Days         int                `json:"days"`
	MeasuredS    float64            `json:"measured_s"`
	InputsSHA256 string             `json:"inputs_sha256"`
	TraceFile    string             `json:"trace_file,omitempty"`
	SelfSeconds  map[string]float64 `json:"self_seconds_by_span,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
}

type fullReport struct {
	Environment map[string]any `json:"environment"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Runs        []*result      `json:"runs"`
}

// print writes the run's metrics from list, one per line with its unit.
func (r *result) print(list []metricDecl) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("%s (%s, seed %d, %d days, %.2f s measured, %d operations, %d failed, inputs %s)\n",
		r.Workload, kind, r.Seed, r.Days, r.MeasuredS, r.Attempted, r.Failed, r.InputsSHA256[:12])
	for _, d := range list {
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	if len(r.SelfSeconds) > 0 {
		names := make([]string, 0, len(r.SelfSeconds))
		for name := range r.SelfSeconds {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfSeconds[names[i]] > r.SelfSeconds[names[j]] })
		fmt.Printf("  self time by span, largest first (s):")
		for _, name := range names[:min(10, len(names))] {
			fmt.Printf(" %s %.3f", name, r.SelfSeconds[name])
		}
		fmt.Println()
	}
	for _, c := range r.Checks {
		fmt.Printf("  FAILED CHECK: %s\n", c)
	}
}

// contractLine is the one-line JSON result the driver reads.
func (r *result) contractLine(list []metricDecl) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(list))
	for _, d := range list {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", d.Name)
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(b), err
}

// ---- BENCHMARK.json ----

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
