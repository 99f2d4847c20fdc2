package eta2

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eta2/internal/allocation"
	"eta2/internal/rcu"
	"eta2/internal/state"
	"eta2/internal/trace"
)

// Server is the crowdsourcing server: it owns task/domain state, learned
// user expertise, and the allocation and truth-analysis machinery. It is
// safe for concurrent use. All of that state is one serverState (state.go)
// in one rcu.Cell with the lock that orders its writers; what Server
// declares beside it is not state. Queries and state captures load the
// cell's published copy, so they never wait on writers — not even on one
// parked in an fsync. A mutation prepares, journals (buffered) and applies
// in one Write of the cell; its fsync wait runs after the Write returns
// (DESIGN.md §11).
type Server struct {
	// st is the state and its writer lock. Lock ordering: the cell's lock is
	// taken before any internal/wal lock, never the other way around, and the
	// fsync wait (journalCommit) runs with it released.
	st rcu.Cell[serverState]

	cfg config // immutable after newServer

	journalPolicy DurabilityPolicy // the state's journal's (journal.go); immutable after open

	// tracer samples write-path traces into the flight recorder; see
	// internal/trace and DESIGN.md §13. Per-server so an in-process
	// primary + follower pair keep separate recorders.
	tracer *trace.Tracer

	// Background compaction coordination; see journal.go. compactMu
	// serializes whole compaction cycles (capture → write → bookkeeping)
	// and a follower's snapshot bootstrap, and is never taken inside a
	// Write. compacting keeps CloseTimeStep from piling up trigger
	// goroutines; closing stops new auto-compactions once Close has begun.
	compactMu  sync.Mutex
	compacting atomic.Bool
	closing    atomic.Bool
}

type config struct {
	alpha       float64
	gamma       float64
	epsilon     float64
	parallelism int
	embedder    Embedder
	durable     *durabilityConfig
}

// Option customizes a Server.
type Option func(*config) error

// WithAlpha sets the expertise decay factor α ∈ [0, 1] (default 0.5).
func WithAlpha(alpha float64) Option {
	return func(c *config) error {
		if alpha < 0 || alpha > 1 {
			return fmt.Errorf("eta2: alpha %g outside [0, 1]", alpha)
		}
		c.alpha = alpha
		return nil
	}
}

// WithGamma sets the clustering termination parameter γ ∈ [0, 1]
// (default 0.5).
func WithGamma(gamma float64) Option {
	return func(c *config) error {
		if gamma < 0 || gamma > 1 {
			return fmt.Errorf("eta2: gamma %g outside [0, 1]", gamma)
		}
		c.gamma = gamma
		return nil
	}
}

// WithEpsilon sets the accuracy threshold ε of the allocation objective
// (default 0.1).
func WithEpsilon(eps float64) Option {
	return func(c *config) error {
		if eps <= 0 {
			return fmt.Errorf("eta2: epsilon must be positive, got %g", eps)
		}
		c.epsilon = eps
		return nil
	}
}

// WithEmbedder supplies the word-embedding model used for semantic task
// clustering. Required if tasks are created with descriptions rather than
// domain hints.
func WithEmbedder(e Embedder) Option {
	return func(c *config) error {
		if e == nil {
			return errors.New("eta2: nil embedder")
		}
		c.embedder = e
		return nil
	}
}

// WithParallelism sets the worker count for the server's hot loops: the
// truth-analysis fixed-point iteration and the allocation p_ij precompute.
// The default (0) uses one worker per available CPU; 1 runs the exact
// sequential paths with no goroutines. Results are bit-identical for every
// value — see the "Performance & concurrency model" section of DESIGN.md.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("eta2: parallelism must be >= 0, got %d", n)
		}
		c.parallelism = n
		return nil
	}
}

// NewServer creates a Server. With WithDurability it first recovers any
// state the data directory holds (latest snapshot + write-ahead-log
// replay), then journals every subsequent mutation.
func NewServer(opts ...Option) (*Server, error) {
	cfg, err := buildConfig(opts...)
	if err != nil {
		return nil, err
	}
	if d := cfg.durable; d != nil {
		return openDurable(cfg, opts, d.dir, d.policy, rolePrimary, "")
	}
	return newServer(cfg)
}

// buildConfig applies options over the defaults.
func buildConfig(opts ...Option) (config, error) {
	cfg := config{alpha: 0.5, gamma: 0.5, epsilon: allocation.DefaultEpsilon}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return config{}, err
		}
	}
	return cfg, nil
}

// newServer builds a bare in-memory server from a resolved config (no
// recovery, no journal — openDurable layers those on top).
func newServer(cfg config) (*Server, error) {
	st, err := state.New(cfg.alpha, cfg.gamma, cfg.epsilon, cfg.embedder)
	if err != nil {
		return nil, err
	}
	return publishServer(cfg, st)
}

// publishServer builds the server of cfg around st and publishes st: the
// query surface relies on a published state.
func publishServer(cfg config, st state.State) (*Server, error) {
	s := &Server{cfg: cfg, tracer: trace.New(0, traceRecorderCapacity)}
	return s, s.update(func(tx *rcu.Tx[serverState]) error {
		tx.W.State = st
		return nil
	})
}

// update runs fn as one Write of the state cell, setting the gauges from the
// state it publishes if fn succeeds. Every change of the state goes through it.
func (s *Server) update(fn func(tx *rcu.Tx[serverState]) error) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		err := fn(tx)
		if err == nil {
			publishMetrics(tx)
		}
		return err
	})
}

// write is every public mutation's one path: writeBuffered, then — with no
// lock held — the wait for the record fn journaled to be durable.
func (s *Server) write(t *trace.Trace, fn func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error)) error {
	lsn, fsync, err := s.writeBuffered(t, fn)
	if err != nil {
		return err
	}
	return s.journalCommit(lsn, fsync)
}

// writeBuffered is the follower write gate, then fn as one update. fn prepares,
// journals and applies; it returns the record's LSN (0 if none), which labels
// t, and the fsync-wait span it opened at the append for the commit wait to end.
// A server whose journal Close detached refuses inside the Write, or a
// mutation that passed the gate before Close began would be acknowledged
// without a record.
func (s *Server) writeBuffered(t *trace.Trace, fn func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error)) (lsn uint64, fsync *trace.Span, err error) {
	if err = s.writable(); err == nil {
		err = s.update(func(tx *rcu.Tx[serverState]) (err error) {
			if tx.W.journal == nil && s.closing.Load() {
				return ErrClosed
			}
			lsn, fsync, err = fn(tx)
			return err
		})
	}
	t.SetLSN(lsn)
	return lsn, fsync, err
}

// traceRecorderCapacity is the flight-recorder ring size per server.
const traceRecorderCapacity = 256

// Tracer returns the server's write-path tracer. Never nil.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// AddUsers registers users with the server. Re-adding an existing ID
// updates its capacity. The batch is atomic: one invalid user — or a
// failed journal write — rejects the whole call with no state change.
// On a replication follower it fails with *FollowerWriteError.
func (s *Server) AddUsers(users ...User) error {
	return s.AddUsersContext(context.Background(), users...)
}

// AddUsersContext is AddUsers recording child spans on the trace carried
// by ctx, if any.
func (s *Server) AddUsersContext(ctx context.Context, users ...User) error {
	if err := s.writable(); err != nil || len(users) == 0 {
		return err
	}
	t := trace.FromContext(ctx)
	app := t.StartSpan(trace.SpanJournalAppend)
	return s.write(t, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		lsn, err := s.addUsers(tx, users)
		app.End()
		if err != nil {
			return 0, nil, err
		}
		// Opened inside the Write so the span order reflects the durability
		// order (append → fsync wait); it ends in journalCommit.
		return lsn, t.StartSpan(trace.SpanFsyncWait), nil
	})
}

// addUsers prepares, journals and applies one non-empty batch for the
// public gates, which own the fsync (journalCommit) after the Write.
func (s *Server) addUsers(tx *rcu.Tx[serverState], users []User) (uint64, error) {
	if err := tx.W.CheckUsers(users); err != nil {
		return 0, err
	}
	j, err := state.Append(tx.W.journal, state.EncodeEvent(nil, state.Event{Kind: state.EventAddUsers, Users: users}))
	if err = journaled(tx, j.LSN(), err); err != nil {
		return 0, err
	}
	tx.W.ApplyAddUsers(j, users)
	return j.LSN(), nil
}

// AddUsersByName registers users by external string name, assigning dense
// ids server-side: a new name gets the next unused id, an existing name
// updates that user's capacity. It returns the ids in name order. The
// batch is atomic (see AddUsers) and the name→id bindings land in the
// state's name index, so every later request that carries a name resolves
// it to a dense int once, at the decode edge.
func (s *Server) AddUsersByName(capacity float64, names ...string) ([]UserID, error) {
	if len(names) == 0 {
		return nil, s.writable()
	}
	var batch []User
	err := s.write(nil, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		var err error
		if batch, err = tx.W.NameUsers(capacity, names); err != nil {
			return 0, nil, err
		}
		lsn, err := s.addUsers(tx, batch)
		return lsn, nil, err
	})
	if err != nil {
		return nil, err
	}
	ids := make([]UserID, len(batch))
	for i, u := range batch {
		ids[i] = u.ID
	}
	return ids, nil
}

// ResolveUser returns the dense user id bound to an external name (via
// AddUsersByName or a named AddUsers batch) in the published state, so a
// name resolves only once its user is registered there. It is lock-free.
func (s *Server) ResolveUser(name string) (UserID, bool) {
	return s.st.Load().ResolveUser(name)
}

// UserName returns the external name bound to a user id, or "" when the
// user is unnamed or unknown. This is the response-encoding edge of the
// name index: downstream state keys on dense ids only, and the string
// form is recovered here. Lock-free.
func (s *Server) UserName(id UserID) string {
	return s.st.Load().UserName(id)
}

// NumUsers returns the number of registered users.
func (s *Server) NumUsers() int {
	return s.st.Load().Counts().Users
}

// ErrNoEmbedder is returned when a described task is created on a server
// built without WithEmbedder.
var ErrNoEmbedder = state.ErrNoEmbedder

// CreateTasks registers new tasks and identifies their expertise domains:
// hinted tasks adopt their hint, described tasks are vectorized with the
// pair-word method and clustered dynamically. It returns the assigned task
// IDs, in spec order.
func (s *Server) CreateTasks(specs ...TaskSpec) ([]TaskID, error) {
	if len(specs) == 0 {
		return nil, s.writable()
	}
	var ids []TaskID
	err := s.write(nil, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		b, err := tx.W.PrepareCreateTasks(specs)
		if err != nil {
			return 0, nil, err
		}
		j, err := state.Append(tx.W.journal, state.EncodeEvent(nil, state.Event{Kind: state.EventCreateTasks, Specs: specs}))
		if err = journaled(tx, j.LSN(), err); err != nil {
			return 0, nil, err
		}
		ids, err = tx.W.ApplyCreateTasks(j, b)
		return j.LSN(), nil, err
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// Domain returns the expertise domain assigned to a task.
func (s *Server) Domain(id TaskID) DomainID {
	return s.st.Load().Domain(id)
}

// NumDomains returns the number of discovered domains (clustered servers
// only; hinted domains are counted by their distinct hints). The count is
// computed at most once per published snapshot — repeat reads against the
// same snapshot are allocation-free.
func (s *Server) NumDomains() int {
	return s.st.Load().NumDomains()
}

// ExpertiseInDomain returns the learned expertise of user u in a domain.
func (s *Server) ExpertiseInDomain(u UserID, d DomainID) float64 {
	return s.st.Load().Expertise(u, d)
}

// ErrNothingToAllocate is returned when allocation is requested with no
// pending tasks or no users.
var ErrNothingToAllocate = state.ErrNothingToAllocate

// AllocateMaxQuality solves the max-quality allocation problem for the pending
// tasks: maximize the probability that each task receives accurate data,
// subject to user capacities (Sec. 5.1 of the paper).
func (s *Server) AllocateMaxQuality() (*Allocation, error) {
	var a *Allocation
	err := s.write(nil, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		var err error
		if a, err = tx.W.AllocateMaxQuality(s.cfg.parallelism); err != nil {
			return 0, nil, err
		}
		return s.journalAllocation(tx, a)
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// journalAllocation journals an allocation's pairs, an audit record:
// allocation itself does not mutate the server.
func (s *Server) journalAllocation(tx *rcu.Tx[serverState], a *Allocation) (uint64, *trace.Span, error) {
	j, err := state.Append(tx.W.journal, state.EncodeEvent(nil, state.Event{Kind: state.EventAllocate, Pairs: a.Pairs}))
	return j.LSN(), nil, journaled(tx, j.LSN(), err)
}

// MinCostParams parameterizes AllocateMinCost.
type MinCostParams struct {
	// EpsBar is the maximum normalized estimation error ε̄ (default 0.5).
	EpsBar float64
	// ConfAlpha is 1 − confidence (default 0.05 for 95%).
	ConfAlpha float64
	// IterBudget is the per-iteration cost cap c° (default 60).
	IterBudget float64
}

// Collector gathers observations for newly allocated pairs — in production
// it pushes the tasks to the users' devices and waits for their data.
type Collector func(pairs []Pair) ([]Observation, error)

// AllocateMinCost solves the min-cost allocation problem for the pending
// tasks (Sec. 5.2): iteratively recruit at most IterBudget worth of users,
// collect their data via collect, and stop as soon as every task's
// estimation error is within ε̄ base numbers with the requested confidence.
// The rounds run on the published state with no lock held, so the node keeps
// serving while collect waits on devices. Each collected batch enters through
// SubmitObservations like any device's data, so CloseTimeStep afterwards
// finalizes the step without re-collecting, and a failed round keeps exactly
// the batches acknowledged before it. A close that lands between rounds closes
// the day; later batches are stamped into the next day. The writer lock is
// taken once, at the end, to journal the allocation's audit record.
func (s *Server) AllocateMinCost(params MinCostParams, collect Collector) (MinCostOutcome, error) {
	if err := s.writable(); err != nil {
		return MinCostOutcome{}, err
	}
	var submit func(pairs []Pair) ([]Observation, error)
	if collect != nil {
		submit = func(pairs []Pair) ([]Observation, error) {
			obs, err := collect(pairs)
			if err == nil {
				err = s.SubmitObservations(obs...)
			}
			return obs, err
		}
	}
	res, err := s.st.Load().MinCost(allocation.MinCostConfig{
		EpsBar:     params.EpsBar,
		Alpha:      params.ConfAlpha,
		IterBudget: params.IterBudget,
	}, s.cfg.parallelism, submit)
	if err != nil {
		return MinCostOutcome{}, err
	}
	if err := s.write(nil, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		return s.journalAllocation(tx, res.Allocation)
	}); err != nil {
		return MinCostOutcome{}, err
	}
	return res, nil
}

// SubmitObservations records data reported by users for this time step.
// The batch is atomic: one invalid observation — or a failed journal
// write — rejects the whole call with no state change. This is the serving
// hot path: concurrent submitters serialize only for the buffered journal
// write and the append, and the WAL group-commits their fsync waits.
func (s *Server) SubmitObservations(obs ...Observation) error {
	return s.SubmitObservationsContext(context.Background(), obs...)
}

// SubmitObservationsContext is SubmitObservations recording child spans
// on the trace carried by ctx, if any. Span calls on a nil trace are nil
// checks, so the hot-path alloc budget holds with tracing disabled and
// enabled (TestSubmitObservationsAllocBudget covers both).
func (s *Server) SubmitObservationsContext(ctx context.Context, obs ...Observation) error {
	// Gated before the validation too: a follower refuses the write, not
	// the batch.
	if err := s.writable(); err != nil || len(obs) == 0 {
		return err
	}
	t := trace.FromContext(ctx)
	st := s.st.Load()
	enc := t.StartSpan(trace.SpanEncode)
	if err := st.CheckObservations(obs); err != nil {
		enc.End()
		return err
	}
	// Stamp and encode into pooled scratch before the Write: zero-alloc at
	// steady state (TestIngestJournalPathZeroAlloc).
	day := st.Day()
	eb := obsEventPool.Get().(*obsEventBuf)
	eb.encode(obs, day)
	enc.End()

	app := t.StartSpan(trace.SpanJournalAppend)
	if err := s.write(t, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		// The append copies the payload and the apply the observations.
		defer obsEventPool.Put(eb)
		// Tasks and users only grow, so the validation above still holds,
		// but a concurrent CloseTimeStep may have advanced the clock.
		if now := tx.W.Day(); now != day {
			eb.encode(obs, now)
		}
		j, err := state.Append(tx.W.journal, eb.b)
		err = journaled(tx, j.LSN(), err)
		app.End()
		if err != nil {
			return 0, nil, err
		}
		// The wait for durability begins at the append, so the fsync-wait
		// span (ended in journalCommit) opens before the publish.
		fsync := t.StartSpan(trace.SpanFsyncWait)
		pub := t.StartSpan(trace.SpanPublish)
		tx.W.ApplyObservations(j, eb.obs)
		mObsAccepted.Add(uint64(len(eb.obs)))
		pub.End()
		return j.LSN(), fsync, nil
	}); err != nil {
		return err
	}
	ingestAllocSample()
	return nil
}

// ErrNoObservations is returned by CloseTimeStep when nothing was
// submitted.
var ErrNoObservations = state.ErrNoObservations

// CloseTimeStep runs expertise-aware truth analysis over the observations
// submitted since the previous step, commits the expertise update, clears
// the pending state, and advances the server's clock. The analysis runs
// against a clone of the expertise store and commits only after the
// step's journal record is written, so a failed journal write leaves the
// server (and what recovery would rebuild) exactly as it was.
func (s *Server) CloseTimeStep() (StepReport, error) {
	return s.CloseTimeStepContext(context.Background())
}

// CloseTimeStepContext is CloseTimeStep recording child spans on the
// trace carried by ctx, if any.
func (s *Server) CloseTimeStepContext(ctx context.Context) (StepReport, error) {
	t := trace.FromContext(ctx)
	var report StepReport
	lsn, fsync, err := s.writeBuffered(t, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		est := t.StartSpan(trace.SpanTruthEstimate)
		step, err := tx.W.EstimateStep(s.cfg.parallelism)
		est.End()
		if err != nil {
			return 0, nil, err
		}
		app := t.StartSpan(trace.SpanJournalAppend)
		j, err := state.Append(tx.W.journal, state.EncodeEvent(nil, state.Event{Kind: state.EventCloseStep}))
		err = journaled(tx, j.LSN(), err)
		app.End()
		if err != nil {
			return 0, nil, err
		}
		fsync := t.StartSpan(trace.SpanFsyncWait) // the wait begins at the append; ended by journalCommit
		pub := t.StartSpan(trace.SpanPublish)
		report = tx.W.ApplyClose(j, step)
		mStepsClosed.Inc()
		s.compactIfOwed(tx)
		pub.End()
		return j.LSN(), fsync, nil
	})
	if err != nil {
		return StepReport{}, err
	}
	// A closed step is the natural commit point: under the interval policy
	// force the flush the group commit would otherwise defer (fsync-never
	// callers keep their explicit no-sync contract). Like the commit wait,
	// which it leaves nothing to flush, this runs with no server lock held.
	if wl := s.st.Load().journal; wl != nil && lsn != 0 && s.journalPolicy.Fsync == FsyncInterval {
		if err := wl.Sync(); err != nil {
			fsync.End()
			return StepReport{}, journalFailed(wl, "sync", err)
		}
	}
	if err := s.journalCommit(lsn, fsync); err != nil {
		return StepReport{}, err
	}
	return report, nil
}

// Truth returns the latest truth estimate for a task.
func (s *Server) Truth(id TaskID) (TruthEstimate, bool) {
	return s.st.Load().Truth(id)
}

// Day returns the server's current time-step index.
func (s *Server) Day() int {
	return s.st.Load().Day()
}
