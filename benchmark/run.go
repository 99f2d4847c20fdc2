package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"eta2/internal/core"
	"eta2/internal/httpapi"
)

// dayRec is what one time step measured. Durations are seconds.
type dayRec struct {
	day                                     int
	create, alloc, ingest, closeS, readback float64
	tasksClosed, obsAcked, iterations       int
	stallMs                                 float64 // slowest probe submit during the close; NaN on read-probe days
	tail                                    bool    // the day the server was killed in; kept out of the medians
	stage                                   string
}

func (d dayRec) step() float64 { return d.create + d.alloc + d.ingest + d.closeS + d.readback }

// runner drives one workload against one primary server.
type runner struct {
	sp      spec
	in      *inputs
	c       *client
	bin     string
	dir     string
	primary *node
	model   string  // embedding model file of the current primary
	sh      *shadow // nil unless traced
	tr      *tracer // nil unless traced

	days       []dayRec
	submitLat  []sample                          // ingest-phase submits, whole run
	readLat    []sample                          // the workload's end-to-end reads, whole run
	closeReads []sample                          // probe reads sent while a close was running
	stages     map[string]*pacedResult           // open-loop results, pooled per stage
	estimate   map[core.TaskID]httpapi.TruthJSON // latest published truth per task
	closed     []core.TaskID                     // tasks with a published truth, in close order
	acked      map[core.TaskID]int               // observations acknowledged since the last close
	measured   time.Duration                     // sum of measured step walls

	setupS   []float64
	recoverS float64
	catchupS float64
	peakRSS  float64
	checks   []string // failed output checks

	stalledFollowers int
}

func (r *runner) fail(format string, a ...any) {
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, a...))
	}
}

// serverArgs are the eta2server flags every node of the run shares. On the
// described workload all nodes of one set-up name the same model file: the
// primary trains and writes it, restarts and followers load it.
func (r *runner) serverArgs(dataDir string) []string {
	args := []string{"-data-dir", dataDir, "-fsync", r.sp.fsync}
	if r.sp.described {
		args = append(args, "-model", r.model)
	}
	return args
}

// setup brings a fresh primary from process start to the first measured
// request: spawn (which trains the embedding model on the described
// workload), register the users, and run the seed day where there is one.
func (r *runner) setup(k int) error {
	if r.primary != nil {
		r.primary.stop() // the previous set-up was only timed
	}
	r.estimate, r.acked, r.closed = map[core.TaskID]httpapi.TruthJSON{}, map[core.TaskID]int{}, nil
	base := filepath.Join(r.dir, "node-"+strconv.Itoa(k))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	r.model = filepath.Join(base, "model.bin")
	start := time.Now()
	n, err := spawn(r.bin, filepath.Join(base, "server.log"), r.serverArgs(filepath.Join(base, "data"))...)
	if err != nil {
		return err
	}
	r.primary = n
	if err := n.waitHealthy(r.c, 60*time.Second); err != nil {
		return err
	}
	const chunk = 5000
	for lo := 0; lo < len(r.in.users); lo += chunk {
		hi := min(lo+chunk, len(r.in.users))
		if _, ok := r.c.do("POST", n.url+"/v1/users", usersBody(r.in.users[lo:hi])); !ok {
			return r.opError("register users")
		}
	}
	if r.sh != nil {
		if err := r.sh.begin(); err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
	}
	if r.sp.seedDay {
		if err := r.day(0, false); err != nil {
			return err
		}
		r.days = r.days[:0] // the seed day is set-up, not a measured step
		r.submitLat, r.readLat, r.measured = nil, nil, 0
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return nil
}

func (r *runner) opError(what string) error {
	if msg := r.c.firstErr.Load(); msg != nil {
		return fmt.Errorf("%s: %s", what, *msg)
	}
	return errors.New(what + " failed")
}

// ---- one time step ----

// day runs time step d: create the day's tasks, allocate, ingest the
// observations, close the step under probe traffic, read truths back.
// On the tail day the server is killed and recovered between ingest and
// close, and a cold follower is caught up after the close.
func (r *runner) day(d int, tail bool) error {
	rec := dayRec{day: d, tail: tail, stallMs: math.NaN()}
	url := r.primary.url
	tasks := r.in.dayTasks(d)
	sp := r.tr.start("step", d, nil)
	defer sp.end()

	// create
	t0 := time.Now()
	s := r.tr.start("http.create_tasks", d, sp)
	data, ok := r.c.do("POST", url+"/v1/tasks", tasksBody(tasks))
	s.end()
	rec.create = time.Since(t0).Seconds()
	if !ok {
		return r.opError("create tasks")
	}
	var created struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(data, &created); err != nil || len(created.IDs) != len(tasks) ||
		created.IDs[0] != int(tasks[0].ID) {
		return fmt.Errorf("create tasks: unexpected ids (err %v)", err)
	}

	// allocate
	var pairs []core.Pair
	if r.sp.allocate {
		t0 = time.Now()
		s = r.tr.start("http.allocate", d, sp)
		data, ok = r.c.do("POST", url+"/v1/allocate/max-quality", []byte("{}"))
		s.end()
		rec.alloc = time.Since(t0).Seconds()
		if !ok {
			return r.opError("allocate")
		}
		var resp struct {
			Pairs []httpapi.PairJSON `json:"pairs"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("allocate: %w", err)
		}
		pairs = make([]core.Pair, len(resp.Pairs))
		for i, p := range resp.Pairs {
			pairs[i] = core.Pair{User: core.UserID(p.User), Task: core.TaskID(p.Task)}
		}
		r.checkCapacity(d, pairs)
	}

	// ingest
	reqs := r.ingestPlan(d, tasks, pairs)
	if r.sh != nil {
		if err := r.sh.aroundIngest(d, true); err != nil {
			return err
		}
	}
	s = r.tr.start("http.ingest", d, sp)
	var res pacedResult
	switch r.sp.ingest {
	case ingestPaced:
		if d == 0 {
			// The seed day has no stage: it fills the store in bulk.
			res = r.c.runClosed(reqs, maxConns, nil)
		} else {
			g := r.sp.stageOf(d)
			rec.stage = g.name
			res = r.c.runPaced(reqs, len(reqs), g.rate, maxConns, nil)
			pool := r.stages[g.name]
			if pool == nil {
				pool = &pacedResult{}
				r.stages[g.name] = pool
			}
			pool.writes = append(pool.writes, shifted(res.writes, r.measured.Seconds())...)
			pool.reads = append(pool.reads, shifted(res.reads, r.measured.Seconds())...)
			pool.lateMs = append(pool.lateMs, res.lateMs...)
		}
	case ingestBulk:
		res = r.c.runClosed(reqs, maxConns, nil)
	default:
		res = r.c.runClosed(reqs, 1, nil)
	}
	s.end()
	rec.ingest = res.wall
	// A submit that failed is counted as a failed operation and its
	// observations are not expected in any truth.
	lost := make(map[int]bool, len(res.failedIdx))
	for _, i := range res.failedIdx {
		lost[i] = true
	}
	for i, q := range reqs {
		if q.write && !lost[i] {
			for _, o := range q.obs {
				r.acked[o.Task]++
			}
			rec.obsAcked += len(q.obs)
		}
	}
	r.submitLat = append(r.submitLat, shifted(res.writes, r.measured.Seconds())...)
	if r.sh != nil {
		if err := r.sh.aroundIngest(d, false); err != nil {
			return err
		}
	}

	if tail {
		if err := r.crashAndRecover(reqs); err != nil {
			return err
		}
	}

	// close, with a probe on the other connection
	report, closeS, probe, err := r.closeStep(d, sp)
	if err != nil {
		return err
	}
	rec.closeS = closeS
	rec.iterations = report.MLEIterations
	if len(probe.writes) > 0 {
		rec.stallMs = quantile(latencies(probe.writes), 1)
	} else {
		r.closeReads = append(r.closeReads, shifted(probe.reads, r.measured.Seconds())...)
	}
	for _, e := range report.Estimates {
		id := core.TaskID(e.Task)
		if id == r.in.probeTask {
			continue
		}
		if e.Observations != r.acked[id] {
			r.fail("day %d task %d: truth counts %d observations, %d were acknowledged", d, e.Task, e.Observations, r.acked[id])
		}
		if _, seen := r.estimate[id]; !seen {
			r.closed = append(r.closed, id)
		}
		r.estimate[id] = e
		delete(r.acked, id)
		rec.tasksClosed++
	}
	delete(r.acked, r.in.probeTask)
	if len(r.acked) != 0 {
		r.fail("day %d: %d tasks with acknowledged observations have no estimate", d, len(r.acked))
	}

	// read back
	want := r.readbackSet(report.Estimates)
	rreqs := make([]request, len(want))
	for i, id := range want {
		rreqs[i] = request{method: "GET", url: url + "/v1/truth?task=" + strconv.Itoa(int(id))}
	}
	s = r.tr.start("http.readback", d, sp)
	rb := r.c.runClosed(rreqs, 1, func(i int, body []byte) {
		var got httpapi.TruthJSON
		if err := json.Unmarshal(body, &got); err != nil || !sameTruth(got, r.estimate[want[i]]) {
			r.fail("day %d task %d: /v1/truth %s differs from the close report", d, want[i], bytes.TrimSpace(body))
		}
	})
	s.end()
	rec.readback = rb.wall
	if r.sp.ingest != ingestPaced && r.sp.ingest != ingestBulk {
		r.readLat = append(r.readLat, shifted(rb.writes, r.measured.Seconds())...)
	}

	r.days = append(r.days, rec)
	if verbose {
		fmt.Printf("  day %2d %-10s create %.4f alloc %.4f ingest %.4f close %.4f readback %.4f s  obs %d tasks %d iters %d stall %.2f ms\n",
			d, rec.stage, rec.create, rec.alloc, rec.ingest, rec.closeS, rec.readback, rec.obsAcked, rec.tasksClosed, rec.iterations, rec.stallMs)
	}
	r.measured += time.Duration(rec.step() * float64(time.Second))

	if r.sh != nil {
		if err := r.sh.day(r, d, tasks, pairs, reqs, report); err != nil {
			return err
		}
	}
	if tail {
		return r.followerCatchUp()
	}
	return nil
}

// shifted moves a phase's samples onto the run's clock, so windows cut
// across days stay in time order.
func shifted(ss []sample, by float64) []sample {
	out := make([]sample, len(ss))
	for i, s := range ss {
		out[i] = sample{due: s.due + by, ms: s.ms}
	}
	return out
}

func sameTruth(a, b httpapi.TruthJSON) bool {
	return a.Task == b.Task && a.Observations == b.Observations &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) && math.Float64bits(a.Base) == math.Float64bits(b.Base)
}

// checkCapacity is the allocation output check: no user is handed more
// processing time than their capacity.
func (r *runner) checkCapacity(d int, pairs []core.Pair) {
	load := make(map[core.UserID]float64)
	for _, p := range pairs {
		load[p.User] += r.in.tasks[int(p.Task)].ProcTime
	}
	for _, u := range r.in.users {
		if load[u.ID] > u.Capacity*(1+1e-12) {
			r.fail("day %d: user %d allocated %.3f h over capacity %.3f h", d, u.ID, load[u.ID], u.Capacity)
		}
	}
}

// ingestPlan turns the day's assignments into the ingest phase's requests;
// each submit carries the observations it encodes.
func (r *runner) ingestPlan(d int, tasks []core.Task, pairs []core.Pair) []request {
	in, url := r.in, r.primary.url+"/v1/observations"
	submit := func(obs []core.Observation) request {
		return request{write: true, method: "POST", url: url, body: obsBody(in, obs), obs: obs}
	}
	var reqs []request
	switch {
	case r.sp.allocate:
		// One request per user, users in id order: the allocation response
		// is sorted by user then task.
		for lo := 0; lo < len(pairs); {
			hi := lo
			for hi < len(pairs) && pairs[hi].User == pairs[lo].User {
				hi++
			}
			var obs []core.Observation
			for _, p := range pairs[lo:hi] {
				if p.Task != in.probeTask {
					obs = append(obs, core.Observation{Task: p.Task, User: p.User, Value: in.observe(p.User, p.Task), Day: d})
				}
			}
			if len(obs) > 0 {
				reqs = append(reqs, submit(obs))
			}
			lo = hi
		}
	case r.sp.ingest == ingestPaced && d > 0:
		g := r.sp.stageOf(d)
		n := int(g.rate * g.seconds)
		w := 0
		for i := 0; i < n; i++ {
			h := in.hash(3, uint64(d), uint64(i))
			if unit(h) < g.writeFrac {
				u := core.UserID(mix(h) % uint64(r.sp.users))
				obs := make([]core.Observation, r.sp.batch)
				for j := range obs {
					t := tasks[(w*r.sp.batch+j)%len(tasks)].ID
					obs[j] = core.Observation{Task: t, User: u, Value: in.observe(u, t), Day: d}
				}
				w++
				reqs = append(reqs, submit(obs))
			} else if i%2 == 0 {
				t := r.closed[mix(h)%uint64(len(r.closed))]
				reqs = append(reqs, request{method: "GET", url: r.primary.url + "/v1/truth?task=" + strconv.Itoa(int(t))})
			} else {
				u := mix(h) % uint64(r.sp.users)
				reqs = append(reqs, request{method: "GET", url: r.primary.url + "/v1/expertise?user_name=" +
					userName(int(u)) + "&domain=" + strconv.Itoa(int(h%uint64(r.sp.domains))+1)})
			}
		}
	default:
		var all []core.Observation
		for _, t := range tasks {
			if t.ID == in.probeTask {
				continue
			}
			for _, u := range in.observers(t.ID) {
				all = append(all, core.Observation{Task: t.ID, User: u, Value: in.observe(u, t.ID), Day: d})
			}
		}
		for lo := 0; lo < len(all); lo += r.sp.batchSize() {
			reqs = append(reqs, submit(all[lo:min(lo+r.sp.batchSize(), len(all))]))
		}
	}
	return reqs
}

func (s spec) batchSize() int {
	if s.ingest == ingestPaced {
		return 64 // the seed day is bulk-loaded
	}
	return s.batch
}

// probeRate is the open-loop rate of the probe that runs beside a close.
const probeRate = 200

// closeStep posts /v1/step/close while a probe runs on the other
// connection: single-observation submits (how long a write waits for the
// close), and on every third day truth reads instead (what reads cost
// while the estimator runs). One connection cannot carry both: a submit
// stalled behind the close would hold back the reads queued after it.
func (r *runner) closeStep(d int, parent *span) (httpapi.StepReportJSON, float64, pacedResult, error) {
	var report httpapi.StepReportJSON
	url := r.primary.url
	var probe request
	if d%3 == 0 && len(r.closed) > 0 {
		probe = request{method: "GET", url: url + "/v1/truth?task=" + strconv.Itoa(int(r.closed[0]))}
	} else {
		o := core.Observation{Task: r.in.probeTask, User: r.in.probeUser, Value: r.in.observe(r.in.probeUser, r.in.probeTask)}
		probe = request{write: true, method: "POST", url: url + "/v1/observations", body: obsBody(r.in, []core.Observation{o})}
	}
	var stop atomic.Bool
	done := make(chan pacedResult)
	// The same request over and over, for longer than the server's write
	// timeout lets the slowest close last.
	go func() { done <- r.c.runPaced([]request{probe}, probeRate*120, probeRate, 1, &stop) }()

	t0 := time.Now()
	s := r.tr.start("http.close_step", d, parent)
	data, ok := r.c.do("POST", url+"/v1/step/close", []byte("{}"))
	s.end()
	closeS := time.Since(t0).Seconds()
	stop.Store(true)
	pr := <-done
	if !ok {
		return report, 0, pr, r.opError("close step")
	}
	if err := json.Unmarshal(data, &report); err != nil {
		return report, 0, pr, fmt.Errorf("close step: %w", err)
	}
	return report, closeS, pr, nil
}

// readbackSet picks the truths to read back after a close: every estimate
// of the step, or the first sp.readback of them.
func (r *runner) readbackSet(est []httpapi.TruthJSON) []core.TaskID {
	n := len(est)
	if r.sp.readback > 0 {
		n = min(n, r.sp.readback)
	}
	out := make([]core.TaskID, 0, n)
	for _, e := range est[:n] {
		if core.TaskID(e.Task) != r.in.probeTask {
			out = append(out, core.TaskID(e.Task))
		}
	}
	return out
}

// ---- crash, recovery, replication ----

// bodies reads /v1/truth for ids from the node at url and returns the raw
// response bodies, which the checks compare byte for byte.
func (r *runner) bodies(url string, ids []core.TaskID) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		data, ok := r.c.do("GET", url+"/v1/truth?task="+strconv.Itoa(int(id)), nil)
		if !ok {
			return nil, r.opError("read truth")
		}
		out[i] = data
	}
	return out, nil
}

func (r *runner) sampleClosed(n int) []core.TaskID {
	if len(r.closed) <= n {
		return r.closed
	}
	out := make([]core.TaskID, n)
	for i := range out {
		out[i] = r.closed[i*len(r.closed)/n]
	}
	return out
}

func equalBodies(a, b [][]byte) int {
	bad := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			bad++
		}
	}
	return bad
}

// crashAndRecover SIGKILLs the primary with a whole un-closed day in its
// WAL tail, restarts it on the same directory and times kill to healthz.
// Truths published before the kill must read back byte-identical
// afterwards.
func (r *runner) crashAndRecover(tailReqs []request) error {
	ids := r.sampleClosed(500)
	before, err := r.bodies(r.primary.url, ids)
	if err != nil {
		return err
	}
	if r.peakRSS, err = r.primary.peakRSSMB(); err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	if r.sh != nil {
		if err := r.sh.beforeKill(r, tailReqs); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := r.primary.restart(); err != nil {
		return err
	}
	if err := r.primary.waitHealthy(r.c, 120*time.Second); err != nil {
		return err
	}
	r.recoverS = time.Since(t0).Seconds()
	after, err := r.bodies(r.primary.url, ids)
	if err != nil {
		return err
	}
	if bad := equalBodies(before, after); bad > 0 {
		r.fail("recovery: %d of %d truths differ from before the kill", bad, len(ids))
	}
	return nil
}

// followerCatchUp starts a cold follower of the primary, times spawn to
// applied LSN >= the primary's committed LSN, and compares truths.
//
// The follower is polled every 10 ms, not faster: polled every 2 ms, about
// one follower in ten stopped mid-way through its first log fetch until the
// primary's 60 s write timeout cut the connection (found while sizing; see
// README.md). A follower that still stalls is replaced and counted.
func (r *runner) followerCatchUp() error {
	ids := r.sampleClosed(500)
	want, err := r.bodies(r.primary.url, ids)
	if err != nil {
		return err
	}
	data, ok := r.c.do("GET", r.primary.url+"/v1/admin/durability", nil)
	var dur httpapi.DurabilityJSON
	if !ok || json.Unmarshal(data, &dur) != nil {
		return r.opError("primary durability")
	}
	const stallAfter = 15 * time.Second
	for k := 0; ; k++ {
		if r.stalledFollowers > 2 {
			return fmt.Errorf("%d followers stalled for %v each", r.stalledFollowers, stallAfter)
		}
		base := filepath.Join(r.dir, "follower-"+strconv.Itoa(k))
		if err := os.MkdirAll(base, 0o755); err != nil {
			return err
		}
		args := append(r.serverArgs(filepath.Join(base, "data")), "-follow", r.primary.url)
		t0 := time.Now()
		f, err := spawn(r.bin, filepath.Join(base, "server.log"), args...)
		if err != nil {
			return err
		}
		var st httpapi.ReplicationJSON
		caughtUp := func() bool {
			code, body, err := r.c.raw("GET", f.url+"/v1/admin/replication", nil)
			return err == nil && code == 200 && json.Unmarshal(body, &st) == nil && st.AppliedLSN >= dur.CommittedLSN
		}
		for !caughtUp() && time.Since(t0) < stallAfter {
			time.Sleep(10 * time.Millisecond)
		}
		if st.AppliedLSN < dur.CommittedLSN {
			r.stalledFollowers++
			f.stop()
			continue
		}
		r.catchupS = time.Since(t0).Seconds()
		got, err := r.bodies(f.url, ids)
		if err != nil {
			f.stop()
			return err
		}
		if bad := equalBodies(want, got); bad > 0 {
			r.fail("follower: %d of %d truths differ from the primary", bad, len(ids))
		}
		if r.sh != nil {
			err = r.sh.replication(r, f, st, r.catchupS)
		}
		f.stop()
		return err
	}
}

// ---- request bodies ----

func usersBody(users []core.User) []byte {
	out := make([]httpapi.UserJSON, len(users))
	for i, u := range users {
		out[i] = httpapi.UserJSON{ID: int(u.ID), Capacity: u.Capacity, Name: u.Name}
	}
	b, _ := json.Marshal(map[string]any{"users": out}) // plain structs cannot fail to encode
	return b
}

func tasksBody(tasks []core.Task) []byte {
	out := make([]httpapi.TaskSpecJSON, len(tasks))
	for i, t := range tasks {
		out[i] = httpapi.TaskSpecJSON{Description: t.Description, ProcTime: t.ProcTime, Cost: t.Cost, DomainHint: int(t.Domain)}
	}
	b, _ := json.Marshal(map[string]any{"tasks": out}) // plain structs cannot fail to encode
	return b
}

// obsBody encodes a submit by hand: shortest round-trip floats, so the
// server and the shadow pipeline read bit-identical values.
func obsBody(in *inputs, obs []core.Observation) []byte {
	b := make([]byte, 0, 24+len(obs)*56)
	b = append(b, `{"observations":[`...)
	for i, o := range obs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"task":`...)
		b = strconv.AppendInt(b, int64(o.Task), 10)
		if name := in.users[int(o.User)].Name; name != "" {
			b = append(b, `,"user_name":"`...)
			b = append(b, name...)
			b = append(b, '"')
		} else {
			b = append(b, `,"user":`...)
			b = strconv.AppendInt(b, int64(o.User), 10)
		}
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, o.Value, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
