package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"eta2"
	"eta2/internal/allocation"
	"eta2/internal/cluster"
	"eta2/internal/core"
	"eta2/internal/embedding"
	"eta2/internal/httpapi"
	"eta2/internal/obs"
	"eta2/internal/repl"
	"eta2/internal/semantic"
	"eta2/internal/truth"
	"eta2/internal/wal"
)

// shadow is the pipeline the traced run feeds the day's identical inputs:
// the paper's layers called directly through their exported functions
// (vectorize, cluster, allocate, index, estimate), an in-process eta2.Server
// behind the HTTP handler, and after the crash a durable server opened on a
// copy of the primary's data directory. Every call is one span; the
// per-layer metrics are read off those spans. The shadow's allocation and
// truths must equal the server's, which both checks the server's output
// and shows that the layer times describe the same work.
type shadow struct {
	r     *runner
	exact bool // one submit connection: server order is known, results must match bit for bit

	// the layers, called directly
	model     *embedding.Model
	vec       *semantic.Vectorizer
	vectors   []semantic.TaskVector
	itemTask  []core.TaskID
	engine    *cluster.Engine
	distCalls float64
	domainOf  map[core.TaskID]core.DomainID
	store     *truth.Store
	merges    int

	// the in-process volatile server behind the handler
	mem *eta2.Server
	api *httpapi.Handler

	acc    map[string][]float64 // per-call or per-day values of a metric; the metric is their median
	val    map[string]float64   // metrics measured once
	items  []float64            // clustered items before each AddItems, beside acc["cluster.add_items_s"]
	parent *span                // the day's shadow.step span
	instrS float64              // seconds spent scraping /metrics inside measured steps

	described, vecFailed, words, unknown float64
	ingest, atKill                       map[string]float64 // /metrics: summed ingest-phase deltas, and the last scrape before the kill
	preIngest                            map[string]float64
}

func newShadow(r *runner) *shadow {
	return &shadow{
		r: r, exact: r.sp.ingest == ingestPerUser,
		domainOf: map[core.TaskID]core.DomainID{}, store: truth.NewStore(0.5),
		acc: map[string][]float64{}, val: map[string]float64{}, ingest: map[string]float64{},
	}
}

// timed runs fn inside a span and returns its duration in seconds.
func (s *shadow) timed(name string, step int, fn func()) float64 {
	sp := s.r.tr.start(name, step, s.parent)
	fn()
	return sp.end()
}

func (s *shadow) add(metric string, v float64) { s.acc[metric] = append(s.acc[metric], v) }

// scrape reads the primary's /metrics; the time it takes is the
// instrument's own cost and is accounted as such.
func (s *shadow) scrape(n *node, step int) (map[string]float64, error) {
	var out map[string]float64
	var err error
	sec := s.timed("obs.scrape", step, func() {
		var code int
		var body []byte
		if code, body, err = s.r.c.raw("GET", n.url+"/metrics", nil); err == nil && code != 200 {
			err = fmt.Errorf("GET /metrics: status %d", code)
		}
		out = parseMetrics(body)
	})
	s.add("obs.scrape_ms", sec*1e3)
	s.instrS += sec
	return out, err
}

// truthSeconds is the time this process's truth-analysis runs have taken so
// far, from the truth package's own histogram in the process-wide registry.
func truthSeconds() float64 {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return 0
	}
	m := parseMetrics(buf.Bytes())
	return m[`eta2_truth_estimate_duration_seconds_sum{phase="batch"}`] +
		m[`eta2_truth_estimate_duration_seconds_sum{phase="incremental"}`]
}

// parseMetrics reads Prometheus text exposition into series -> value.
func parseMetrics(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

// begin runs once the primary has its users: it loads what the server
// loaded and registers the users with the in-process server.
func (s *shadow) begin() error {
	r := s.r
	var opts []eta2.Option
	if r.sp.described {
		// Train the model the way eta2server does and hold the result
		// against the file the server wrote: training is deterministic.
		var trained *embedding.Model
		var err error
		s.val["embedding.train_s"] = s.timed("embedding.train", 0, func() {
			corpus := embedding.GenerateCorpus(embedding.BuiltinDomains, embedding.CorpusConfig{Seed: 1})
			trained, err = embedding.Train(corpus, embedding.TrainConfig{Seed: 2})
		})
		if err != nil {
			return err
		}
		onDisk, err := os.ReadFile(r.model)
		if err != nil {
			return err
		}
		var mine bytes.Buffer
		if err := trained.Save(&mine); err != nil {
			return err
		}
		if !bytes.Equal(mine.Bytes(), onDisk) {
			r.fail("shadow: the embedding model trained here differs from the file the server wrote")
		}
		s.val["embedding.load_s"] = s.timed("embedding.load", 0, func() {
			s.model, err = embedding.Load(bytes.NewReader(onDisk))
		})
		if err != nil {
			return err
		}
		s.vec = semantic.NewVectorizer(s.model)
		s.engine, err = cluster.New(0.5, func(a, b int) float64 {
			s.distCalls++
			return semantic.Distance(s.vectors[a], s.vectors[b])
		})
		if err != nil {
			return err
		}
		opts = append(opts, eta2.WithEmbedder(s.model))
	}
	var err error
	if s.mem, err = eta2.NewServer(opts...); err != nil {
		return err
	}
	s.api = httpapi.New(s.mem)
	if err := s.mem.AddUsers(r.in.users...); err != nil {
		return err
	}
	if r.sp.named {
		names := make([]string, 0, len(r.in.users))
		ids := make([]int, 0, len(r.in.users))
		for _, u := range r.in.users {
			names, ids = append(names, u.Name), append(ids, int(u.ID))
		}
		in := core.NewInterner()
		s.val["core.intern_bind_s"] = s.timed("core.intern_bind", 0, func() { err = in.BindAll(names, ids) })
		if err != nil {
			return err
		}
		sec := s.timed("core.intern_lookup", 0, func() {
			for _, n := range names {
				if _, ok := in.Lookup(n); !ok {
					err = fmt.Errorf("interner lost %q", n)
				}
			}
		})
		s.val["core.intern_lookup_ns"] = sec * 1e9 / float64(len(names))
	}
	return err
}

// aroundIngest scrapes the primary's /metrics on both sides of a day's
// ingest phase and sums the deltas, so the WAL counters describe submits
// only. The scrapes sit between phases, inside the step.
func (s *shadow) aroundIngest(d int, before bool) error {
	m, err := s.scrape(s.r.primary, d)
	if err != nil {
		return err
	}
	if before {
		s.preIngest = m
		return nil
	}
	for k, v := range m {
		s.ingest[k] += v - s.preIngest[k]
	}
	s.atKill = m
	return nil
}

// day feeds time step d to the shadow: the same tasks, the server's own
// allocation, and the observations in the order they were submitted.
func (s *shadow) day(r *runner, d int, tasks []core.Task, pairs []core.Pair, reqs []request, report httpapi.StepReportJSON) error {
	s.parent = r.tr.start("shadow.step", d, nil)
	defer func() { s.parent.end(); s.parent = nil }()
	var obs []core.Observation
	for _, q := range reqs {
		obs = append(obs, q.obs...)
	}
	if err := s.layers(d, tasks, pairs, obs, report); err != nil {
		return fmt.Errorf("shadow layers: %w", err)
	}
	if err := s.inProcess(d, tasks, pairs, reqs, report); err != nil {
		return fmt.Errorf("shadow server: %w", err)
	}
	return nil
}

// ---- the layers, called directly ----

func (s *shadow) layers(d int, tasks []core.Task, pairs []core.Pair, obs []core.Observation, report httpapi.StepReportJSON) error {
	r := s.r
	// semantic + embedding + cluster: only described tasks enter.
	var described []core.Task
	for _, t := range tasks {
		if t.Domain == core.DomainNone {
			described = append(described, t)
		} else {
			s.domainOf[t.ID] = t.Domain
		}
	}
	if len(described) > 0 {
		var err error
		sec := s.timed("semantic.vectorize", d, func() {
			for _, t := range described {
				tv, verr := s.vec.Vectorize(t.Description)
				if verr != nil {
					s.vecFailed++
					err = verr
				}
				s.vectors = append(s.vectors, tv)
				s.itemTask = append(s.itemTask, t.ID)
			}
		})
		if err != nil {
			return err
		}
		s.add("semantic.vectorize_us", sec*1e6/float64(len(described)))
		s.described += float64(len(described))
		var tokens []string
		for _, t := range described {
			if pw, err := semantic.ExtractPair(t.Description); err == nil {
				tokens = append(append(tokens, pw.Query...), pw.Target...)
			}
		}
		sec = s.timed("embedding.lookup", d, func() {
			for _, w := range tokens {
				if _, ok := s.model.Vector(w); !ok {
					s.unknown++
				}
			}
		})
		s.add("embedding.lookup_ns", sec*1e9/float64(max(len(tokens), 1)))
		s.words += float64(len(tokens))

		var up cluster.Update
		s.items = append(s.items, float64(s.engine.NumItems()))
		s.add("cluster.add_items_s", s.timed("cluster.add_items", d, func() { up, err = s.engine.AddItems(len(described)) }))
		if err != nil {
			return err
		}
		if len(up.Merges) > 0 {
			st := s.store.Clone()
			for _, m := range up.Merges {
				st.MergeDomains(m.Into, m.From)
			}
			s.store = st
			s.merges += len(up.Merges)
		}
		for item, dom := range up.Assigned {
			s.domainOf[s.itemTask[item]] = dom
		}
	}

	// allocation
	if r.sp.allocate {
		in := allocation.Input{
			Users: r.in.users, Tasks: tasks,
			Expertise: func(u core.UserID, t core.TaskID) float64 { return s.store.Expertise(u, s.domainOf[t]) },
			Epsilon:   allocation.DefaultEpsilon,
		}
		var res allocation.MaxQualityResult
		var err error
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.add("allocation.max_quality_s", s.timed("allocation.max_quality", d, func() {
			res, err = allocation.MaxQuality(in, allocation.MaxQualityOptions{})
		}))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		s.add("allocation.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		s.add("allocation.pairs_considered", float64(len(in.Users)*len(in.Tasks)))
		s.add("allocation.pairs_selected", float64(res.Allocation.Len()))
		s.add("allocation.expected_quality", res.Objective)
		if !samePairs(res.Allocation.Pairs, pairs) {
			r.fail("shadow day %d: allocation.MaxQuality chose %d pairs that differ from the server's %d", d, res.Allocation.Len(), len(pairs))
		}
		if _, counted := s.val["allocation.expertise_calls"]; !counted && d >= 1 {
			// Counting through Input.Expertise needs one worker and slows the
			// call, so it is a second, untimed run on one day.
			calls := 0.0
			in.Parallelism = 1
			in.Expertise = func(u core.UserID, t core.TaskID) float64 {
				calls++
				return s.store.Expertise(u, s.domainOf[t])
			}
			if _, err := allocation.MaxQuality(in, allocation.MaxQualityOptions{}); err != nil {
				return err
			}
			s.val["allocation.expertise_calls"] = calls
		}
	}

	// core + truth
	if len(obs) == 0 {
		return nil
	}
	domainFn := func(id core.TaskID) core.DomainID { return s.domainOf[id] }
	var table *core.ObservationTable
	s.add("core.table_build_s", s.timed("core.table_build", d, func() { table = core.NewObservationTable(obs) }))
	s.add("core.dense_index_s", s.timed("core.dense_index", d, func() { core.NewDenseIndex(table) }))
	var store *truth.Store
	s.add("truth.store_clone_s", s.timed("truth.store_clone", d, func() { store = s.store.Clone() }))
	var mu, sigma map[core.TaskID]float64
	var iters int
	var sec float64
	var err error
	cfg := truth.Config{}
	if d == 0 {
		var res truth.Result
		sec = s.timed("truth.estimate", d, func() { res, err = truth.Estimate(table, domainFn, nil, cfg) })
		if err != nil {
			return err
		}
		s.val["truth.estimate_s"] = sec
		var contrib []truth.Contribution
		s.add("truth.contributions_s", s.timed("truth.contributions", d, func() {
			contrib = truth.Contributions(table, domainFn, res.Mu, res.Sigma, cfg)
		}))
		store.Commit(contrib)
		mu, sigma, iters = res.Mu, res.Sigma, res.Iterations
	} else {
		var res truth.UpdateResult
		sec = s.timed("truth.update_step", d, func() { res, err = truth.UpdateStep(store, table, domainFn, cfg) })
		if err != nil {
			return err
		}
		s.add("truth.update_step_s", sec)
		s.add("truth.contributions_s", s.timed("truth.contributions", d, func() {
			truth.Contributions(table, domainFn, res.Mu, res.Sigma, cfg)
		}))
		mu, sigma, iters = res.Mu, res.Sigma, res.Iterations
	}
	s.store = store
	s.add("truth.iterations", float64(iters))
	s.add("truth.obs_iter_per_s", float64(len(obs)*iters)/sec)
	s.compareTruth("layers", d, report, iters, func(id core.TaskID) (float64, float64, bool) {
		v, ok := mu[id]
		return v, sigma[id], ok
	})
	return nil
}

func samePairs(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareTruth holds one pipeline's estimates against the server's close
// report: bit for bit where the submit order is known, to 1e-9 relative
// where two connections raced.
func (s *shadow) compareTruth(who string, d int, report httpapi.StepReportJSON, iters int, get func(core.TaskID) (float64, float64, bool)) {
	bad := 0
	for _, e := range report.Estimates {
		id := core.TaskID(e.Task)
		if id == s.r.in.probeTask {
			continue
		}
		v, b, ok := get(id)
		switch {
		case !ok:
			bad++
		case s.exact:
			if math.Float64bits(v) != math.Float64bits(e.Value) || math.Float64bits(b) != math.Float64bits(e.Base) {
				bad++
			}
		default:
			if !close9(v, e.Value) || !close9(b, e.Base) {
				bad++
			}
		}
	}
	if bad > 0 {
		s.r.fail("shadow %s day %d: %d of %d truths differ from the server's", who, d, bad, len(report.Estimates))
	}
	if s.exact && iters != report.MLEIterations {
		s.r.fail("shadow %s day %d: %d MLE iterations, the server ran %d", who, d, iters, report.MLEIterations)
	}
}

func close9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// ---- the in-process server behind the HTTP handler ----

func (s *shadow) inProcess(d int, tasks []core.Task, pairs []core.Pair, reqs []request, report httpapi.StepReportJSON) error {
	r := s.r
	specs := make([]eta2.TaskSpec, len(tasks))
	for i, t := range tasks {
		specs[i] = eta2.TaskSpec{Description: t.Description, ProcTime: t.ProcTime, Cost: t.Cost, DomainHint: t.Domain}
	}
	var err error
	s.add("eta2.create_tasks_s", s.timed("eta2.create_tasks", d, func() { _, err = s.mem.CreateTasks(specs...) }))
	if err != nil {
		return err
	}
	for _, t := range tasks {
		if got := s.mem.Domain(t.ID); got != s.domainOf[t.ID] {
			r.fail("shadow day %d: task %d is in domain %d in eta2.Server and %d in cluster.Engine", d, t.ID, got, s.domainOf[t.ID])
			break
		}
	}
	if r.sp.allocate {
		var alloc *eta2.Allocation
		s.add("eta2.allocate_s", s.timed("eta2.allocate", d, func() { alloc, err = s.mem.AllocateMaxQuality() }))
		if err != nil {
			return err
		}
		if !samePairs(alloc.Pairs, pairs) {
			r.fail("shadow day %d: in-process eta2.Server allocated differently from the child process", d)
		}
		out := make([]httpapi.PairJSON, len(pairs))
		for i, p := range pairs {
			out[i] = httpapi.PairJSON{User: int(p.User), Task: int(p.Task)}
		}
		s.add("httpapi.alloc_encode_ms", 1e3*s.timed("httpapi.alloc_encode", d, func() {
			err = json.NewEncoder(io.Discard).Encode(map[string][]httpapi.PairJSON{"pairs": out})
		}))
		if err != nil {
			return err
		}
	}

	// Submits keep the order the child saw. Even ones call the server
	// directly, odd ones go through the handler; the difference of the two
	// means is what the HTTP layer adds.
	var direct, viaHTTP []float64
	var mallocs, sampled float64
	for i, q := range reqs {
		if !q.write {
			continue
		}
		if i%2 == 0 {
			var m0, m1 runtime.MemStats
			sample := sampled < 32
			if sample {
				runtime.ReadMemStats(&m0)
			}
			sec := s.timed("eta2.submit", d, func() { err = s.mem.SubmitObservations(q.obs...) })
			if sample {
				runtime.ReadMemStats(&m1)
				mallocs += float64(m1.Mallocs - m0.Mallocs)
				sampled++
			}
			direct = append(direct, sec*1e6)
		} else {
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest("POST", "/v1/observations", bytes.NewReader(q.body))
			hreq.Header.Set("Content-Type", "application/json")
			viaHTTP = append(viaHTTP, 1e6*s.timed("httpapi.submit", d, func() { s.api.ServeHTTP(rec, hreq) }))
			if rec.Code != 200 {
				err = fmt.Errorf("handler submit: status %d %s", rec.Code, rec.Body.String())
			}
		}
		if err != nil {
			return err
		}
	}
	if len(direct) > 0 && len(viaHTTP) > 0 {
		s.add("eta2.submit_mem_us", mean(direct))
		s.add("httpapi.submit_overhead_us", mean(viaHTTP)-mean(direct))
		s.add("eta2.allocs_per_submit", mallocs/sampled)
	}

	var rep eta2.StepReport
	truthBefore := truthSeconds()
	closeS := s.timed("eta2.close_step", d, func() { rep, err = s.mem.CloseTimeStep() })
	if err != nil {
		return err
	}
	s.add("eta2.close_step_s", closeS)
	// What this close did beyond estimating: build the table, clone the
	// store, copy every truth ever published, publish. The estimator's share
	// is what the truth package itself recorded for this very call.
	if tb := s.acc["core.table_build_s"]; len(tb) > 0 {
		s.add("eta2.close_overhead_s", closeS-(truthSeconds()-truthBefore)-tb[len(tb)-1])
	}
	est := make(map[core.TaskID]eta2.TruthEstimate, len(rep.Estimates))
	for _, e := range rep.Estimates {
		est[e.Task] = e
	}
	s.compareTruth("eta2.Server", d, report, rep.MLEIterations, func(id core.TaskID) (float64, float64, bool) {
		e, ok := est[id]
		return e.Value, e.Base, ok
	})
	s.add("httpapi.close_encode_ms", 1e3*s.timed("httpapi.close_encode", d, func() {
		err = json.NewEncoder(io.Discard).Encode(report)
	}))
	if err != nil {
		return err
	}

	// reads: the same ids directly and through the handler
	ids := r.readbackSet(report.Estimates)
	if len(ids) == 0 {
		return nil
	}
	sec := s.timed("eta2.truth_read", d, func() {
		for _, id := range ids {
			if _, ok := s.mem.Truth(id); !ok {
				err = fmt.Errorf("in-process server has no truth for task %d", id)
			}
		}
	})
	if err != nil {
		return err
	}
	s.add("eta2.truth_read_ns", sec*1e9/float64(len(ids)))
	hsec := s.timed("httpapi.read", d, func() {
		for _, id := range ids {
			rec := httptest.NewRecorder()
			s.api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/truth?task="+strconv.Itoa(int(id)), nil))
			if rec.Code != 200 {
				err = fmt.Errorf("handler read: status %d", rec.Code)
			}
		}
	})
	s.add("httpapi.read_overhead_us", (hsec-sec)*1e6/float64(len(ids)))
	return err
}

// ---- crash: WAL replay, recovery, durable submits, compaction ----

// beforeKill runs with a whole un-closed day in the primary's WAL tail and
// the primary idle. It copies the data directory twice: one copy is
// replayed through wal.Log alone, the other is recovered by an in-process
// durable eta2.Server, which then takes the tail day's first submits
// again, compacts, and closes.
func (s *shadow) beforeKill(r *runner, tailReqs []request) error {
	var err error
	src := filepath.Join(filepath.Dir(r.primary.log), "data")
	walCopy, srvCopy := filepath.Join(r.dir, "shadow-wal"), filepath.Join(r.dir, "shadow-data")
	for _, dst := range []string{walCopy, srvCopy} {
		if err := copyDir(src, dst); err != nil {
			return err
		}
	}
	d := r.sp.days - 1

	records := 0.0
	sec := s.timed("wal.replay", d, func() {
		var log *wal.Log
		if log, err = wal.Open(walCopy, wal.Options{}); err != nil {
			return
		}
		err = log.Replay(func(uint64, []byte) error { records++; return nil })
		if cerr := log.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	s.val["wal.replay_s"], s.val["wal.replayed_records"] = sec, records

	opts := []eta2.Option{eta2.WithDurability(srvCopy, eta2.DurabilityPolicy{Fsync: eta2.FsyncPolicy(r.sp.fsync)})}
	if s.model != nil {
		opts = append(opts, eta2.WithEmbedder(s.model))
	}
	var dur *eta2.Server
	s.val["eta2.recover_s"] = s.timed("eta2.recover", d, func() { dur, err = eta2.NewServer(opts...) })
	if err != nil {
		return fmt.Errorf("recover copy: %w", err)
	}
	var durable, appendUS, commitUS []float64
	log, err := wal.Open(filepath.Join(r.dir, "shadow-log"), wal.Options{Sync: walPolicy(r.sp.fsync)})
	if err != nil {
		return err
	}
	before := dur.DurabilityStats()
	n := 0
	for _, q := range tailReqs {
		if !q.write {
			continue
		}
		if n++; n > 256 {
			break
		}
		durable = append(durable, 1e6*s.timed("eta2.submit_durable", d, func() { err = dur.SubmitObservations(q.obs...) }))
		if err != nil {
			return err
		}
	}
	after := dur.DurabilityStats()
	// wal.Log alone takes records of the size the server just journaled.
	payload := make([]byte, max(1, int(after.WALBytes-before.WALBytes)/max(1, len(durable))))
	for range durable {
		var lsn uint64
		appendUS = append(appendUS, 1e6*s.timed("wal.append", d, func() { lsn, err = log.AppendBuffered(payload) }))
		if err != nil {
			return err
		}
		commitUS = append(commitUS, 1e6*s.timed("wal.commit", d, func() { err = log.Commit(lsn) }))
		if err != nil {
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	s.val["eta2.submit_durable_us"] = mean(durable)
	s.val["wal.append_us"], s.val["wal.commit_us"] = mean(appendUS), mean(commitUS)

	s.val["eta2.compact_s"] = s.timed("eta2.compact", d, func() { err = dur.Compact() })
	if err != nil {
		return fmt.Errorf("compact copy: %w", err)
	}
	var snap bytes.Buffer
	if err := dur.SaveStateBinary(&snap); err != nil {
		return err
	}
	s.val["eta2.snapshot_mb"] = float64(snap.Len()) / (1 << 20)
	return dur.Close()
}

func walPolicy(fsync string) wal.SyncPolicy {
	switch fsync {
	case "interval":
		return wal.SyncInterval
	case "never":
		return wal.SyncNever
	}
	return wal.SyncAlways
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- replication ----

// replication runs once the first follower has caught up: it pulls the
// primary's snapshot and log through repl.Client the way a follower does,
// and reads what the primary shipped and the follower applied.
func (s *shadow) replication(r *runner, f *node, st httpapi.ReplicationJSON, catchupS float64) error {
	d := r.sp.days - 1
	cli := repl.NewClient(r.primary.url, r.c.hc)
	ctx := context.Background()
	var snapLSN uint64
	var snapBytes int64
	var err error
	s.val["repl.snapshot_fetch_s"] = s.timed("repl.snapshot_fetch", d, func() {
		var body io.ReadCloser
		if snapLSN, body, err = cli.FetchSnapshot(ctx); err != nil {
			return
		}
		snapBytes, err = io.Copy(io.Discard, body)
		if cerr := body.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return fmt.Errorf("fetch snapshot: %w", err)
	}
	batches, logBytes := 0.0, 0
	s.val["repl.fetch_log_s"] = s.timed("repl.fetch_log", d, func() {
		for from := snapLSN + 1; ; {
			frontier, n, ferr := cli.FetchLog(ctx, from, 0, 0, func(_ uint64, p []byte) error {
				logBytes += len(p)
				return nil
			})
			if ferr != nil {
				err = ferr
				return
			}
			batches++
			from += uint64(n)
			if n == 0 || from > frontier {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("fetch log: %w", err)
	}
	s.val["repl.batches"] = batches
	s.val["repl.shipped_mb"] = float64(snapBytes+int64(logBytes)) / (1 << 20)
	s.val["repl.bootstraps"] = float64(st.SnapshotBootstraps)
	fm, err := s.scrape(f, d)
	if err != nil {
		return err
	}
	s.val["repl.apply_records_per_s"] = fm["eta2_repl_applied_records_total"] / catchupS
	return nil
}

// ---- per-layer metrics ----

// finish turns what the shadow recorded into the per-layer metrics.
func (s *shadow) finish(r *runner, m map[string]float64) {
	for name, vs := range s.acc {
		m[name] = median(vs)
	}
	for name, v := range s.val {
		m[name] = v
	}
	if n := s.described; n > 0 {
		m["semantic.fail_ratio"] = s.vecFailed / n
		m["embedding.oov_ratio"] = s.unknown / math.Max(s.words, 1)
		m["cluster.dist_calls"] = s.distCalls
		m["cluster.dist_calls_per_item"] = s.distCalls / n
		m["cluster.domains"] = float64(s.engine.NumDomains())
		m["cluster.merges"] = float64(s.merges)
		m["cluster.add_items_ms_per_kitem"] = 1e6 * slope(s.items, s.acc["cluster.add_items_s"])
		if got := s.atKill["eta2_cluster_domains"]; int(got) != s.engine.NumDomains() {
			r.fail("shadow: cluster.Engine holds %d domains, the server reports %g", s.engine.NumDomains(), got)
		}
	}
	if c := m["allocation.pairs_considered"]; c > 0 {
		m["allocation.selected_ratio"] = m["allocation.pairs_selected"] / c
	}

	// The primary's own WAL counters, summed over the ingest phases.
	m["wal.fsyncs"] = s.ingest["eta2_wal_fsyncs_total"]
	m["wal.rotations"] = s.ingest["eta2_wal_segment_rotations_total"]
	if n := s.ingest["eta2_wal_group_commit_batch_records_count"]; n > 0 {
		m["wal.group_commit_batch"] = s.ingest["eta2_wal_group_commit_batch_records_sum"] / n
	}
	if n := s.ingest["eta2_server_observations_accepted_total"]; n > 0 {
		m["wal.bytes_per_obs"] = s.ingest["eta2_wal_appended_bytes_total"] / n
	}
	m["trace.overhead_pct"] = 100 * s.instrS / (r.measured.Seconds() + s.instrS)
}

// slope is the least-squares slope of y over x.
func slope(x, y []float64) float64 {
	if len(x) < 2 || len(x) != len(y) {
		return 0
	}
	mx, my := mean(x), mean(y)
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx <= 0 {
		return 0
	}
	return sxy / sxx
}
