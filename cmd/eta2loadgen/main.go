// Command eta2loadgen drives mixed concurrent read/write traffic against
// the ETA² HTTP API and reports throughput and latency percentiles as
// machine-readable JSON. It is the measurement half of the serving
// concurrency work: the BENCH_*.json files in the repo root are its
// output.
//
// Usage:
//
//	eta2loadgen                              # self-hosted, 1/8/64 clients
//	eta2loadgen -addr http://host:8080       # drive an external server
//	eta2loadgen -clients 8 -duration 2s -out bench.json
//	eta2loadgen -preset read-mostly          # 95% reads, up to 1024 clients
//	eta2loadgen -preset replica-read         # reads served by a follower replica
//
// In self-hosted mode (the default) each scenario gets a fresh durable
// server on a fresh data directory, so scenarios do not contaminate each
// other.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eta2"
	"eta2/internal/httpapi"
	"eta2/internal/obs"
	"eta2/internal/trace"
)

func main() {
	// Progress goes to stderr as structured logs; the JSON report stays on
	// stdout (or -out).
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err := run(); err != nil {
		slog.Error("eta2loadgen exiting", "err", err)
		os.Exit(1)
	}
}

type config struct {
	addr         string
	dataDir      string
	fsync        string
	clients      []int
	duration     time.Duration
	readFraction float64
	batch        int
	fsyncDelay   time.Duration
	replica      bool
	out          string
	// nUsers/nTasks size the seeded population (-users/-tasks; the
	// ingest-heavy preset raises them to the 1M-user dataset tier).
	nUsers int
	nTasks int
	// useNames seeds named users and submits observations by user name,
	// exercising the server's intern table on the ingest hot path.
	useNames bool
}

func run() error {
	var (
		addr       = flag.String("addr", "", "base URL of a running server; empty self-hosts an in-process server per scenario")
		dataDir    = flag.String("data-dir", "", "root for self-hosted data directories (default: a temp dir, removed afterwards)")
		fsync      = flag.String("fsync", "always", "WAL fsync policy for self-hosted servers: always | interval | never")
		clients    = flag.String("clients", "1,8,64", "comma-separated concurrent client counts, one scenario each")
		duration   = flag.Duration("duration", 3*time.Second, "measured duration per scenario")
		readFrac   = flag.Float64("read-fraction", 0.5, "fraction of requests that are reads (truth/expertise/durability)")
		batch      = flag.Int("batch", 4, "observations per submit request")
		fsyncDelay = flag.Duration("fsync-delay", 0, "artificial latency added to every WAL fsync (self-hosted only) — emulates network block storage on dev machines with write-back caches")
		out        = flag.String("out", "", "write the JSON report to this file (default: stdout)")
		preset     = flag.String("preset", "", `scenario preset; "read-mostly" = -read-fraction 0.95 -clients 1,8,64,256,512,1024, "replica-read" = the same mix with reads served by a replication follower, "ingest-heavy" = 95% writes against a 1M named-user population (explicitly set flags win)`)
		nUsers     = flag.Int("users", 0, "seeded user population per scenario (0 = preset default, plain scenarios seed 16)")
		nTasks     = flag.Int("tasks", 0, "seeded task count per scenario (0 = preset default, plain scenarios seed 32)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	replica := false
	useNames := false
	// A preset only fills in flags the user did not set themselves.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch *preset {
	case "":
	case "read-mostly":
		// The read-path scaling measurement: mostly lock-free reads, with
		// enough writers mixed in to keep snapshots churning, across client
		// counts far above the core count. Flat read p50/p99 from 8 to 1024
		// clients is the acceptance signal (BENCH_PR6.json).
		if !explicit["read-fraction"] {
			*readFrac = 0.95
		}
		if !explicit["clients"] {
			*clients = "1,8,64,256,512,1024"
		}
	case "replica-read":
		// The replication measurement: the same mostly-read mix as
		// read-mostly, but every read is served by a follower replica while
		// writes keep hitting the primary. Read latency at parity with
		// read-mostly plus bounded replication lag is the acceptance signal
		// (BENCH_PR7.json).
		replica = true
		if !explicit["read-fraction"] {
			*readFrac = 0.95
		}
		if !explicit["clients"] {
			*clients = "1,8,64,256,512,1024"
		}
	case "ingest-heavy":
		// The capacity measurement (BENCH_PR8.json): a 1M-user named
		// population with a 95%-write mix, submitted by user name so
		// every request crosses the intern table, under the lazy-flush
		// fsync policy a high-volume ingest deployment would run. Flat
		// write p99 across client counts plus the report's capacity
		// section (bytes/user, peak RSS) are the acceptance signal.
		useNames = true
		if !explicit["read-fraction"] {
			*readFrac = 0.05
		}
		if !explicit["clients"] {
			*clients = "1,8,64"
		}
		if !explicit["batch"] {
			*batch = 16
		}
		if !explicit["fsync"] {
			*fsync = "interval"
		}
		if !explicit["users"] {
			*nUsers = 1_000_000
		}
		if !explicit["tasks"] {
			*nTasks = 10_000
		}
	default:
		return fmt.Errorf("unknown -preset %q (have: read-mostly, replica-read, ingest-heavy)", *preset)
	}
	if *version {
		fmt.Printf("eta2loadgen %s %s\n", obs.Version(), runtime.Version())
		return nil
	}

	cfg := config{
		addr:         *addr,
		dataDir:      *dataDir,
		fsync:        *fsync,
		duration:     *duration,
		readFraction: *readFrac,
		batch:        *batch,
		fsyncDelay:   *fsyncDelay,
		replica:      replica,
		out:          *out,
		nUsers:       *nUsers,
		nTasks:       *nTasks,
		useNames:     useNames,
	}
	if cfg.nUsers == 0 {
		cfg.nUsers = 16
	}
	if cfg.nTasks == 0 {
		cfg.nTasks = 32
	}
	if cfg.nUsers < 0 || cfg.nTasks < 0 {
		return fmt.Errorf("bad -users or -tasks")
	}
	for _, part := range strings.Split(*clients, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -clients entry %q", part)
		}
		cfg.clients = append(cfg.clients, n)
	}
	if cfg.replica && cfg.addr != "" {
		return fmt.Errorf("-preset replica-read needs a self-hosted server (drop -addr)")
	}
	if cfg.addr != "" && cfg.fsyncDelay > 0 {
		return fmt.Errorf("-fsync-delay needs a self-hosted server (drop -addr)")
	}
	if cfg.batch <= 0 || cfg.readFraction < 0 || cfg.readFraction > 1 {
		return fmt.Errorf("bad -batch or -read-fraction")
	}
	if cfg.addr == "" && cfg.dataDir == "" {
		dir, err := os.MkdirTemp("", "eta2loadgen")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.dataDir = dir
	}

	rep := report{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		Preset:       *preset,
		Fsync:        cfg.fsync,
		FsyncDelayMs: float64(cfg.fsyncDelay) / float64(time.Millisecond),
		DurationS:    cfg.duration.Seconds(),
		ReadFraction: cfg.readFraction,
		Batch:        cfg.batch,
		Users:        cfg.nUsers,
		Tasks:        cfg.nTasks,
	}
	for _, n := range cfg.clients {
		slog.Info("scenario", "clients", n, "fsync", cfg.fsync, "duration", cfg.duration)
		// The bytes/user capacity model is measured once, while the
		// first scenario seeds its population.
		measure := cfg.addr == "" && rep.Capacity == nil
		sc, cap, err := runScenario(cfg, n, measure)
		if err != nil {
			return fmt.Errorf("%d clients: %w", n, err)
		}
		if cap != nil {
			rep.Capacity = cap
		}
		slog.Info("scenario done",
			"write_rps", fmt.Sprintf("%.0f", sc.Writes.RPS),
			"write_p50_ms", fmt.Sprintf("%.2f", sc.Writes.P50Ms),
			"write_p99_ms", fmt.Sprintf("%.2f", sc.Writes.P99Ms),
			"read_rps", fmt.Sprintf("%.0f", sc.Reads.RPS),
			"read_p50_ms", fmt.Sprintf("%.2f", sc.Reads.P50Ms),
			"read_p99_ms", fmt.Sprintf("%.2f", sc.Reads.P99Ms))
		rep.Scenarios = append(rep.Scenarios, sc)
	}
	rep.PeakRSSBytes = vmHWM()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if cfg.out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(cfg.out, data, 0o644)
}

// report is the machine-readable benchmark output (BENCH_*.json).
type report struct {
	Generated string `json:"generated"`
	Preset    string `json:"preset,omitempty"`
	Fsync     string `json:"fsync"`
	// FsyncDelayMs is the artificial per-fsync latency (-fsync-delay)
	// the scenarios ran with; 0 means raw hardware fsyncs.
	FsyncDelayMs float64 `json:"fsync_delay_ms"`
	DurationS    float64 `json:"duration_s"`
	ReadFraction float64 `json:"read_fraction"`
	Batch        int     `json:"batch"`
	// Users/Tasks is the population each scenario seeds (-users/-tasks;
	// the ingest-heavy preset runs the 1M-user dataset tier).
	Users int `json:"users"`
	Tasks int `json:"tasks"`
	// Capacity is the measured memory model (self-hosted runs only),
	// taken while the first scenario seeded its population.
	Capacity  *capacityReport `json:"capacity,omitempty"`
	Scenarios []scenario      `json:"scenarios"`
	// PeakRSSBytes is the process's high-water resident set (VmHWM) when
	// the run finished — server and load generator combined in
	// self-hosted mode. 0 on platforms without procfs.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// capacityReport is the measured bytes/user and bytes/task model behind
// DESIGN.md's capacity table: heap growth across the seeding phases of
// one scenario, divided by the population sizes. Self-hosted runs only —
// the server lives in this process, so heap deltas attribute to it.
type capacityReport struct {
	Users               int     `json:"users"`
	Tasks               int     `json:"tasks"`
	HeapBaseBytes       uint64  `json:"heap_base_bytes"`
	HeapAfterUsersBytes uint64  `json:"heap_after_users_bytes"`
	HeapAfterTasksBytes uint64  `json:"heap_after_tasks_bytes"`
	BytesPerUser        float64 `json:"bytes_per_user"`
	BytesPerTask        float64 `json:"bytes_per_task"`
}

type scenario struct {
	Mode    string  `json:"mode"` // concurrent | replica
	Clients int     `json:"clients"`
	Writes  opStats `json:"writes"`
	Reads   opStats `json:"reads"`
	Errors  int     `json:"errors"`
	// Replication describes the follower that served the reads (preset
	// replica-read only).
	Replication *replicationReport `json:"replication,omitempty"`
	// MetricsDelta is the change in every eta2_* series scraped from
	// /metrics across the measured window (after minus before), giving
	// server-side counts — WAL fsyncs, group-commit batches, HTTP status
	// classes — alongside the client-side latency numbers. Empty when the
	// target exposes no /metrics endpoint.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
	// MemoryMetrics is the final absolute value of the server's memory
	// gauges (intern table size, sampled ingest allocs/op, heap bytes) —
	// gauges whose level matters more than their delta.
	MemoryMetrics map[string]float64 `json:"memory_metrics,omitempty"`
	// SlowTraces is the write-path flight recorder's view of the scenario:
	// the five slowest sampled POST /v1/observations traces, with their
	// full span breakdowns (encode, journal append, fsync wait, publish) —
	// scraped from GET /v1/admin/traces after the measured window. Empty
	// when the target server has tracing disabled.
	SlowTraces []trace.TraceJSON `json:"slow_traces,omitempty"`
}

// replicationReport is the follower's view at the end of a replica-read
// scenario: where it converged to, the worst lag a 100ms sampler saw
// during the measured window, and how long full convergence took after
// the load stopped.
type replicationReport struct {
	PrimaryFrontier    uint64  `json:"primary_frontier"`
	AppliedLSN         uint64  `json:"applied_lsn"`
	MaxLagRecords      uint64  `json:"max_lag_records"`
	ConvergeMs         float64 `json:"converge_ms"`
	Reconnects         uint64  `json:"reconnects"`
	SnapshotBootstraps uint64  `json:"snapshot_bootstraps"`
}

type opStats struct {
	Count int     `json:"count"`
	RPS   float64 `json:"rps"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

func runScenario(cfg config, clients int, measure bool) (scenario, *capacityReport, error) {
	baseURL := cfg.addr
	readURL := cfg.addr
	httpClient := http.DefaultClient
	// In self-hosted mode write tracing is switched on after seeding, so
	// the flight recorder holds only measured-window traces.
	var tracedSrv *eta2.Server
	if cfg.addr == "" {
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("c%d", clients))
		srv, err := eta2.NewServer(eta2.WithDurability(dir, eta2.DurabilityPolicy{
			Fsync:      eta2.FsyncPolicy(cfg.fsync),
			FsyncDelay: cfg.fsyncDelay,
			CompactAt:  -1,
		}))
		if err != nil {
			return scenario{}, nil, err
		}
		handler := httpapi.New(srv)
		// Same composition as cmd/eta2server: business API plus /metrics,
		// so the scrape path is identical for self-hosted and external runs.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/metrics", obs.Default().Handler())
		ts := httptest.NewServer(mux)
		defer ts.Close()
		defer srv.Close()
		tracedSrv = srv
		baseURL = ts.URL
		readURL = ts.URL
		httpClient = ts.Client()

		if cfg.replica {
			// Reads go to a follower replicating this primary over its real
			// HTTP endpoint — the full log-shipping path, not a shortcut.
			follower, err := eta2.OpenFollower(baseURL, eta2.FollowerOptions{
				DataDir:  dir + "-replica",
				Policy:   eta2.DurabilityPolicy{Fsync: eta2.FsyncPolicy(cfg.fsync), CompactAt: -1},
				PollWait: time.Second,
				RetryMin: 20 * time.Millisecond,
			})
			if err != nil {
				return scenario{}, nil, err
			}
			fts := httptest.NewServer(httpapi.NewFollower(follower))
			defer fts.Close()
			defer follower.Close()
			readURL = fts.URL
		}
	}
	// The default transport keeps only 2 idle conns per host; at 64
	// clients that would measure connection churn, not the server.
	if t, ok := httpClient.Transport.(*http.Transport); ok {
		t = t.Clone()
		t.MaxIdleConns = clients * 2
		t.MaxIdleConnsPerHost = clients * 2
		httpClient = &http.Client{Transport: t, Timeout: 30 * time.Second}
	}
	client := httpapi.NewClient(baseURL, httpClient)
	readClient := client
	if readURL != baseURL {
		readClient = httpapi.NewClient(readURL, httpClient)
	}
	ctx := context.Background()

	// Seed the server so reads have something to read: users (chunked —
	// the ingest-heavy preset seeds a million), tasks across the domain
	// set, observations from a bounded user x task sample, one closed
	// step. The heap is sampled around the user and task phases when this
	// scenario is the capacity-measurement one.
	nUsers, nTasks := cfg.nUsers, cfg.nTasks
	const nDomains = 4
	var capRep *capacityReport
	heapNow := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heapBase uint64
	if measure {
		heapBase = heapNow()
	}
	const seedChunk = 50_000
	for lo := 0; lo < nUsers; lo += seedChunk {
		hi := lo + seedChunk
		if hi > nUsers {
			hi = nUsers
		}
		if cfg.useNames {
			names := make([]string, 0, hi-lo)
			for i := lo; i < hi; i++ {
				names = append(names, userName(i))
			}
			if _, err := client.AddUsersByName(ctx, 1e9, names); err != nil {
				return scenario{}, nil, err
			}
		} else {
			users := make([]httpapi.UserJSON, 0, hi-lo)
			for i := lo; i < hi; i++ {
				users = append(users, httpapi.UserJSON{ID: i, Capacity: 1e9})
			}
			if err := client.AddUsers(ctx, users); err != nil {
				return scenario{}, nil, err
			}
		}
	}
	var heapUsers uint64
	if measure {
		heapUsers = heapNow()
	}
	var tasks []int
	for lo := 0; lo < nTasks; lo += seedChunk {
		hi := lo + seedChunk
		if hi > nTasks {
			hi = nTasks
		}
		specs := make([]httpapi.TaskSpecJSON, 0, hi-lo)
		for i := lo; i < hi; i++ {
			specs = append(specs, httpapi.TaskSpecJSON{ProcTime: 1, DomainHint: 1 + i%nDomains})
		}
		ids, err := client.CreateTasks(ctx, specs)
		if err != nil {
			return scenario{}, nil, err
		}
		tasks = append(tasks, ids...)
	}
	if measure {
		heapTasks := heapNow()
		capRep = &capacityReport{
			Users:               nUsers,
			Tasks:               nTasks,
			HeapBaseBytes:       heapBase,
			HeapAfterUsersBytes: heapUsers,
			HeapAfterTasksBytes: heapTasks,
			BytesPerUser:        float64(heapUsers-heapBase) / float64(nUsers),
			BytesPerTask:        float64(heapTasks-heapUsers) / float64(nTasks),
		}
	}
	// Reads target the seeded sample so truth lookups hit folded
	// estimates; writes spread over the full task set.
	obsUsers, readTasks := nUsers, tasks
	if obsUsers > 16 {
		obsUsers = 16
	}
	if len(readTasks) > 32 {
		readTasks = readTasks[:32]
	}
	var seed []httpapi.ObservationJSON
	for u := 0; u < obsUsers; u++ {
		for _, task := range readTasks {
			seed = append(seed, httpapi.ObservationJSON{Task: task, User: u, Value: 10 + float64(task) + 0.1*float64(u)})
		}
	}
	if err := client.SubmitObservations(ctx, seed); err != nil {
		return scenario{}, nil, err
	}
	if _, err := client.CloseStep(ctx); err != nil {
		return scenario{}, nil, err
	}
	if cfg.replica {
		// Let the follower catch up with the seed data before the clock
		// starts, so early reads measure serving, not initial sync.
		if err := waitCaughtUp(ctx, client, readClient, 30*time.Second); err != nil {
			return scenario{}, nil, err
		}
	}

	// Trace the measured window: 1-in-16 head sampling starts here, after
	// the seed writes, so slow_traces never contains the giant seed batch.
	if tracedSrv != nil {
		tracedSrv.Tracer().SetSampleEvery(16)
	}

	before, scrapeErr := scrapeMetrics(httpClient, baseURL)
	if scrapeErr != nil {
		slog.Warn("no /metrics endpoint; report will omit metrics_delta", "url", baseURL, "err", scrapeErr)
	}

	type worker struct {
		reads, writes []time.Duration
		errors        int
	}
	workers := make([]worker, clients)
	deadline := time.Now().Add(cfg.duration)

	// In replica mode a sampler tracks the worst replication lag the
	// follower reports while the load runs.
	var maxLag uint64
	samplerDone := make(chan struct{})
	stopSampler := make(chan struct{})
	if cfg.replica {
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if rs, err := readClient.Replication(ctx); err == nil && rs.LagRecords > maxLag {
						maxLag = rs.LagRecords
					}
				}
			}
		}()
	} else {
		close(samplerDone)
	}

	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			me := &workers[w]
			readKinds := 3
			if cfg.useNames {
				readKinds = 4 // + name resolution through the intern table
			}
			for time.Now().Before(deadline) {
				if rng.Float64() < cfg.readFraction {
					var err error
					start := time.Now()
					switch rng.Intn(readKinds) {
					case 0:
						_, err = readClient.Truth(ctx, readTasks[rng.Intn(len(readTasks))])
					case 1:
						_, err = readClient.Expertise(ctx, rng.Intn(nUsers), 1+rng.Intn(nDomains))
					case 2:
						_, err = readClient.Durability(ctx)
					default:
						_, err = readClient.ResolveUser(ctx, userName(rng.Intn(nUsers)))
					}
					me.reads = append(me.reads, time.Since(start))
					if err != nil {
						me.errors++
					}
				} else {
					obs := make([]httpapi.ObservationJSON, cfg.batch)
					for i := range obs {
						obs[i] = httpapi.ObservationJSON{
							Task:  tasks[rng.Intn(len(tasks))],
							Value: 10 + rng.NormFloat64(),
						}
						if cfg.useNames {
							// By name: every observation crosses the
							// server's intern table at decode time.
							obs[i].UserName = userName(rng.Intn(nUsers))
						} else {
							obs[i].User = w % nUsers
						}
					}
					start := time.Now()
					err := client.SubmitObservations(ctx, obs)
					me.writes = append(me.writes, time.Since(start))
					if err != nil {
						me.errors++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone

	var replRep *replicationReport
	if cfg.replica {
		convergeStart := time.Now()
		if err := waitCaughtUp(ctx, client, readClient, 30*time.Second); err != nil {
			return scenario{}, nil, err
		}
		rs, err := readClient.Replication(ctx)
		if err != nil {
			return scenario{}, nil, err
		}
		replRep = &replicationReport{
			PrimaryFrontier:    rs.PrimaryFrontier,
			AppliedLSN:         rs.AppliedLSN,
			MaxLagRecords:      maxLag,
			ConvergeMs:         float64(time.Since(convergeStart)) / float64(time.Millisecond),
			Reconnects:         rs.Reconnects,
			SnapshotBootstraps: rs.SnapshotBootstraps,
		}
	}

	var delta, memMetrics map[string]float64
	if scrapeErr == nil {
		if after, err := scrapeMetrics(httpClient, baseURL); err == nil {
			delta = metricsDelta(before, after)
			memMetrics = memoryMetrics(after)
		}
	}

	var reads, writes []time.Duration
	errors := 0
	for i := range workers {
		reads = append(reads, workers[i].reads...)
		writes = append(writes, workers[i].writes...)
		errors += workers[i].errors
	}
	mode := "concurrent"
	if cfg.replica {
		mode = "replica"
	}
	return scenario{
		Mode:          mode,
		Clients:       clients,
		Writes:        summarize(writes, cfg.duration),
		Reads:         summarize(reads, cfg.duration),
		Errors:        errors,
		Replication:   replRep,
		MetricsDelta:  delta,
		MemoryMetrics: memMetrics,
		SlowTraces:    scrapeSlowTraces(httpClient, baseURL),
	}, capRep, nil
}

// scrapeSlowTraces pulls the five slowest write traces out of the
// server's flight recorder (GET /v1/admin/traces). Best-effort: an
// older or tracing-disabled server just yields no traces.
func scrapeSlowTraces(client *http.Client, baseURL string) []trace.TraceJSON {
	resp, err := client.Get(strings.TrimSuffix(baseURL, "/") + "/v1/admin/traces?route=/v1/observations&limit=5")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var tr struct {
		Traces []trace.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil || len(tr.Traces) == 0 {
		return nil
	}
	return tr.Traces
}

// userName is the canonical external id of seeded user i.
func userName(i int) string {
	return fmt.Sprintf("user-%07d", i)
}

// memoryMetrics picks the memory gauges out of a /metrics scrape — the
// series whose absolute level is the measurement (intern table size,
// sampled ingest allocs/op, heap bytes), as opposed to the counters
// MetricsDelta differences.
func memoryMetrics(scrape map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range scrape {
		if strings.HasPrefix(k, "eta2_intern_") || strings.HasPrefix(k, "eta2_ingest_") || strings.HasPrefix(k, "eta2_heap_") {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// vmHWM reads the process's peak resident set (VmHWM) in bytes from
// /proc/self/status. Returns 0 on platforms without procfs.
func vmHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}

// waitCaughtUp polls both sides' replication status until the reader's
// applied LSN reaches the writer's committed frontier.
func waitCaughtUp(ctx context.Context, primary, follower *httpapi.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		p, perr := primary.Replication(ctx)
		f, ferr := follower.Replication(ctx)
		if perr == nil && ferr == nil && f.AppliedLSN >= p.CommittedLSN {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not converge within %v (applied %d, frontier %d)",
				timeout, f.AppliedLSN, p.CommittedLSN)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrapeMetrics fetches and parses /metrics into a flat series -> value
// map. Keys are the full sample lines' name+labels part, so histogram
// buckets and labeled series stay distinct.
func scrapeMetrics(client *http.Client, baseURL string) (map[string]float64, error) {
	resp, err := client.Get(strings.TrimSuffix(baseURL, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition into series -> value.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			continue // timestamped or malformed line; skip
		}
		out[line[:idx]] = v
	}
	return out, sc.Err()
}

// metricsDelta returns after-minus-before for every eta2_* series that
// moved during the window (gauges included: their delta is the net
// change).
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, a := range after {
		if !strings.HasPrefix(k, "eta2_") {
			continue
		}
		if d := a - before[k]; d != 0 { //eta2:floatcmp-ok counter deltas are exact: both scrapes parse the same decimal encoding
			out[k] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func summarize(lat []time.Duration, elapsed time.Duration) opStats {
	if len(lat) == 0 {
		return opStats{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i]) / float64(time.Millisecond)
	}
	return opStats{
		Count: len(lat),
		RPS:   float64(len(lat)) / elapsed.Seconds(),
		P50Ms: pct(0.50),
		P90Ms: pct(0.90),
		P99Ms: pct(0.99),
		MaxMs: float64(lat[len(lat)-1]) / float64(time.Millisecond),
	}
}
