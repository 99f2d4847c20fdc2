package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"eta2/internal/core"
	"eta2/internal/dataset"
)

// ingestKind is how a day's observations reach the server.
type ingestKind int

const (
	// ingestPerUser: closed loop, one connection, one request per user
	// holding all of that user's assignments (the loop workloads).
	ingestPerUser ingestKind = iota
	// ingestBulk: closed loop, two connections, fixed-size batches.
	ingestBulk
	// ingestPaced: open loop, two connections, a fixed request schedule.
	ingestPaced
)

// stage is a run of open-loop days with one traffic mix: a request rate,
// the share of requests that are observation submits, how long each day's
// schedule runs, and how many days the stage lasts at -seconds 15. Each day
// ends in a close, so a stage yields as many closes as it has days.
type stage struct {
	name      string
	rate      float64
	writeFrac float64
	seconds   float64
	days      int
}

// spec sizes one workload. days and stage days are given for
// -seconds baseSeconds and scale linearly with the flag, so a run's inputs
// depend only on (-seed, -seconds).
type spec struct {
	name string

	users       int
	described   bool // tasks carry descriptions; the server clusters them
	domains     int
	tasksPerDay int
	procLo      float64
	procHi      float64
	days        int  // measured days, day 0 included
	seedDay     bool // day 0 runs inside setup and is not measured
	allocate    bool // the server allocates; else observers are drawn here
	obsPerTask  int  // observers per task when the server does not allocate
	ingest      ingestKind
	batch       int     // observations per submit request (bulk, paced)
	stages      []stage // one per measured day (paced)
	fsync       string
	named       bool // users are registered and referenced by name
	readback    int  // truths read back per day; 0 reads every task
	minExpert   float64
	errCeiling  float64 // output check: truth_err_norm must stay below
}

// baseSeconds is the -seconds value the sizes in specs are written for; it
// is run_seconds of BENCHMARK.json.
const baseSeconds = 15

// The four workloads. Sizes are what a measured window of 10 to 20 seconds
// holds on the two-core sandbox the benchmark was calibrated on, so that a
// whole run, set-up and crash included, takes a little over 20 s;
// README.md records the sizing runs behind them.
func specs() []spec {
	return []spec{
		{
			name:  "loop-described",
			users: 200, described: true, domains: 6, tasksPerDay: 500, days: 22,
			allocate: true, ingest: ingestPerUser, fsync: "always",
			errCeiling: 2.0,
		},
		{
			name:  "loop-wide",
			users: 700, domains: 8, tasksPerDay: 700, procLo: 1, procHi: 2, days: 11,
			allocate: true, ingest: ingestPerUser, fsync: "always",
			errCeiling: 0.5,
		},
		{
			name:  "serve-mixed",
			users: 10000, domains: 8, tasksPerDay: 4000, procLo: 1, procHi: 2,
			seedDay: true, obsPerTask: 8, ingest: ingestPaced, batch: 8, named: true,
			stages: []stage{
				{name: "w80-r1000", rate: 1000, writeFrac: 0.8, seconds: 1, days: 5},
				{name: "w80-r2000", rate: 2000, writeFrac: 0.8, seconds: 1, days: 5},
				{name: "r95-r2000", rate: 2000, writeFrac: 0.05, seconds: 1, days: 5},
			},
			fsync: "interval", readback: 200, minExpert: 0.3, errCeiling: 2.0,
		},
		{
			name:  "bulk-close",
			users: 5000, domains: 8, tasksPerDay: 10000, procLo: 1, procHi: 2, days: 15,
			obsPerTask: 10, ingest: ingestBulk, batch: 64, fsync: "always",
			readback: 200, minExpert: 0.3, errCeiling: 0.5,
		},
	}
}

// smoke shrinks a scaled spec to the sizing the tests run: every phase of
// every workload still happens, on a few dozen users and tasks.
func (s spec) smoke() spec {
	s.users = min(s.users, 60)
	s.tasksPerDay = min(s.tasksPerDay, 40)
	s.readback = min(s.readback, 20)
	s.errCeiling = 10 // a few dozen tasks with one or two observers each
	if len(s.stages) == 0 {
		s.days = 4 // day 3 is the first with a read probe beside its close
		return s
	}
	st := make([]stage, len(s.stages))
	for i, g := range s.stages {
		g.rate, g.seconds, g.days = 200, 0.25, 1
		st[i] = g
	}
	s.stages, s.days = st, len(st)+1
	return s
}

// scaled returns the spec sized for a measured window of the given length.
func (s spec) scaled(seconds int) spec {
	f := float64(seconds) / baseSeconds
	if len(s.stages) == 0 {
		s.days = max(3, int(math.Round(float64(s.days)*f)))
		return s
	}
	st := make([]stage, len(s.stages))
	s.days = 1 // the seed day
	for i, g := range s.stages {
		g.days = max(1, int(math.Round(float64(g.days)*f)))
		s.days += g.days
		st[i] = g
	}
	s.stages = st
	return s
}

// stageOf returns the stage open-loop day d (1-based; day 0 seeds) is in.
func (s spec) stageOf(d int) stage {
	for _, g := range s.stages {
		if d -= g.days; d <= 0 {
			return g
		}
	}
	return s.stages[len(s.stages)-1]
}

// probeDomain is the domain hint of the probe task. It is far above any
// id the clusterer or a hint can reach, so the probe user's evidence never
// meets another user's.
const probeDomain = 1 << 20

// inputs is everything a run feeds the server, made from the seed alone.
type inputs struct {
	sp        spec
	seed      int64
	users     []core.User // probe user last, capacity 0
	expertise [][]float64 // generator-side, per user per generator domain
	tasks     []core.Task // all days, ids in creation order; probe task is the last task of day 0
	genDomain []int
	dayStart  []int // tasks[dayStart[d]:dayStart[d+1]] are created on day d
	probeTask core.TaskID
	probeUser core.UserID
}

func userName(id int) string { return "device-" + strconv.Itoa(id) }

func generate(sp spec, seed int64) *inputs {
	total := sp.days * sp.tasksPerDay
	var ds *dataset.Dataset
	if sp.described {
		cfg := dataset.SurveyConfig(seed)
		cfg.NumUsers, cfg.NumTasks, cfg.NumDomains = sp.users, total, sp.domains
		ds = dataset.Textual(cfg)
	} else {
		ds = dataset.Synthetic(dataset.SyntheticConfig{
			Seed: seed, NumUsers: sp.users, NumTasks: total, NumDomains: sp.domains,
			ProcTimeLo: sp.procLo, ProcTimeHi: sp.procHi,
		})
	}
	in := &inputs{sp: sp, seed: seed, expertise: ds.TrueExpertise}
	in.users = append(in.users, ds.Users...)
	if sp.named {
		for i := range in.users {
			in.users[i].Name = userName(i)
		}
	}
	in.probeUser = core.UserID(len(in.users))
	in.users = append(in.users, core.User{ID: in.probeUser, Name: "probe"})

	// Task ids are positions in creation order; the probe task takes the
	// slot after day 0's tasks, so later days shift by one.
	in.probeTask = core.TaskID(sp.tasksPerDay)
	for d := 0; d < sp.days; d++ {
		in.dayStart = append(in.dayStart, len(in.tasks))
		for _, t := range ds.Tasks[d*sp.tasksPerDay : (d+1)*sp.tasksPerDay] {
			gd := ds.GenDomain[int(t.ID)]
			t.ID = core.TaskID(len(in.tasks))
			t.Day = d
			in.tasks = append(in.tasks, t)
			in.genDomain = append(in.genDomain, gd)
		}
		if d == 0 {
			in.tasks = append(in.tasks, core.Task{
				ID: in.probeTask, Domain: probeDomain, ProcTime: 1, Cost: 1, Truth: 10, Base: 1,
			})
			in.genDomain = append(in.genDomain, 0)
		}
	}
	in.dayStart = append(in.dayStart, len(in.tasks))
	return in
}

// dayTasks returns the tasks created on day d (the probe task included on
// day 0).
func (in *inputs) dayTasks(d int) []core.Task {
	return in.tasks[in.dayStart[d]:in.dayStart[d+1]]
}

// mix is splitmix64, the hash behind every per-pair draw: a value depends
// on (seed, user, task) only, never on the order requests were made in.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (in *inputs) hash(a, b, c uint64) uint64 {
	return mix(mix(mix(uint64(in.seed)^a*0x9e3779b97f4a7c15)+b) + c)
}

func unit(h uint64) float64 { return (float64(h>>11) + 0.5) / (1 << 53) }

// observe is the paper's observation model N(mu_j, (sigma_j/u_ij)^2) with
// the noise drawn from a hash of (seed, user, task).
func (in *inputs) observe(u core.UserID, t core.TaskID) float64 {
	task := in.tasks[int(t)]
	if t == in.probeTask {
		return task.Truth
	}
	e := math.Max(in.expertise[int(u)][in.genDomain[int(t)]], math.Max(in.sp.minExpert, 0.05))
	h := in.hash(1, uint64(u), uint64(t))
	z := math.Sqrt(-2*math.Log(unit(h))) * math.Cos(2*math.Pi*unit(mix(h)))
	return task.Truth + task.Base/e*z
}

// observers draws the distinct users that observe task t when the server
// does not allocate.
func (in *inputs) observers(t core.TaskID) []core.UserID {
	n := in.sp.users
	out := make([]core.UserID, 0, in.sp.obsPerTask)
	for k := uint64(0); len(out) < in.sp.obsPerTask; k++ {
		u := core.UserID(in.hash(2, uint64(t), k) % uint64(n))
		dup := false
		for _, v := range out {
			dup = dup || v == u
		}
		if !dup {
			out = append(out, u)
		}
	}
	return out
}

// digest fingerprints the generated inputs: same seed and size, same hex.
func (in *inputs) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, u := range in.users {
		put(uint64(u.ID))
		put(math.Float64bits(u.Capacity))
		h.Write([]byte(u.Name))
	}
	for i, t := range in.tasks {
		h.Write([]byte(t.Description))
		put(uint64(t.Domain))
		put(math.Float64bits(t.ProcTime))
		put(math.Float64bits(t.Truth))
		put(math.Float64bits(t.Base))
		put(math.Float64bits(in.observe(core.UserID(i%in.sp.users), t.ID)))
	}
	for _, g := range in.sp.stages {
		fmt.Fprintf(h, "%s %g %g %g %d", g.name, g.rate, g.writeFrac, g.seconds, g.days)
	}
	return hex.EncodeToString(h.Sum(nil))
}
