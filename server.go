package eta2

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"eta2/internal/allocation"
	"eta2/internal/core"
	"eta2/internal/loop"
	"eta2/internal/rcu"
	"eta2/internal/semantic"
	"eta2/internal/trace"
	"eta2/internal/truth"
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

	// interner binds external string names to dense user ids (DESIGN.md
	// §15). It is derived state: rebuilt by replay/restore from the Name
	// fields carried in add_users events and snapshots, never serialized
	// itself. Lookups are lock-free; binds happen inside a Write.
	interner *core.Interner

	// domains identifies described tasks' domains; nil without an embedder
	// (unless a snapshot brought its own clustering state). It is the one
	// object behind the state written in place (inside a Write), so the
	// state's cluster field holds its state as of the last change.
	domains *loop.Domains

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

// truthConfig is the MLE configuration: the truth module's defaults, run on
// the server's worker count.
func (c config) truthConfig() truth.Config {
	return truth.Config{Parallelism: c.parallelism}
}

// newPersisted returns the containers every state holds non-nil, empty.
//
//eta2:allocdiscipline-ok constructor: runs once per server or restore, not per request
func newPersisted() persisted {
	return persisted{userPos: make(map[UserID]int32), domainCount: new(atomic.Int64)}
}

// newServer builds a bare in-memory server from a resolved config (no
// recovery, no journal — openDurable layers those on top) and publishes its
// empty state: the query surface relies on a published state.
func newServer(cfg config) (*Server, error) {
	s := &Server{
		cfg:      cfg,
		interner: core.NewInterner(),
		tracer:   trace.New(0, traceRecorderCapacity),
	}
	w := serverState{persisted: newPersisted()}
	w.alpha, w.gamma, w.epsilon, w.store = cfg.alpha, cfg.gamma, cfg.epsilon, truth.NewStore(cfg.alpha)
	if cfg.embedder != nil {
		var err error
		if s.domains, err = loop.NewDomains(cfg.embedder, cfg.gamma); err != nil {
			return nil, fmt.Errorf("eta2: %w", err)
		}
		ds := s.domains.State()
		w.cluster = &ds
	}
	return s, s.update(func(tx *rcu.Tx[serverState]) error {
		tx.W = w
		return nil
	})
}

// update runs fn as one Write of the state cell, setting the gauges from the
// state it publishes if fn succeeds. Every change of the state goes through it.
func (s *Server) update(fn func(tx *rcu.Tx[serverState]) error) error {
	return s.st.Write(func(tx *rcu.Tx[serverState]) error {
		err := fn(tx)
		if err == nil {
			s.publishMetrics(tx)
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
func (s *Server) writeBuffered(t *trace.Trace, fn func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error)) (lsn uint64, fsync *trace.Span, err error) {
	if err = s.writable(); err == nil {
		err = s.update(func(tx *rcu.Tx[serverState]) (err error) {
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
	if err := s.prepareAddUsers(tx, users); err != nil {
		return 0, err
	}
	j, err := s.journalBuffered(tx, encodeEvent(nil, walEvent{Kind: eventAddUsers, Users: users}))
	if err != nil {
		return 0, err
	}
	return j.lsn, s.applyAddUsers(tx, j, users)
}

// prepareAddUsers validates the batch and its name bindings against the
// working state without changing it. Every check runs before journaling: a
// record that could not re-apply on replay must never reach the WAL.
func (s *Server) prepareAddUsers(tx *rcu.Tx[serverState], users []User) error {
	var batchName map[UserID]string // lazily built: unnamed batches skip all of this
	for _, u := range users {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("eta2: %w", err)
		}
		if u.Name == "" {
			continue
		}
		if id, ok := s.interner.Lookup(u.Name); ok && id != int(u.ID) {
			return fmt.Errorf("eta2: user name %q already bound to id %d", u.Name, id)
		}
		if i, ok := tx.W.userPos[u.ID]; ok {
			if prev := tx.W.users[i].Name; prev != "" && prev != u.Name {
				return fmt.Errorf("eta2: user %d already named %q, cannot rename to %q", u.ID, prev, u.Name)
			}
		}
		if batchName == nil {
			batchName = make(map[UserID]string, len(users)) //eta2:allocdiscipline-ok registration path, not per-observation ingest
		}
		if prev, ok := batchName[u.ID]; ok && prev != u.Name {
			return fmt.Errorf("eta2: user %d named both %q and %q in one batch", u.ID, prev, u.Name)
		}
		batchName[u.ID] = u.Name
	}
	return nil
}

// applyAddUsers registers a journaled batch. Names are write-once (renames
// were refused by prepareAddUsers) and replay applies the same merge, so
// live and recovered state agree.
func (s *Server) applyAddUsers(tx *rcu.Tx[serverState], _ journaled, users []User) error {
	tx.W.users, tx.W.userPos = cloneUsersWith(tx.W.users, tx.W.userPos, users)
	for _, u := range users {
		tx.W.nextUserID = max(tx.W.nextUserID, u.ID+1)
	}
	// Cannot conflict: every binding was validated, and BindAll treats
	// same-name-same-id rebinds (intra-batch duplicates) as no-ops.
	if err := bindNames(s.interner, users); err != nil {
		return fmt.Errorf("eta2: intern: %w", err)
	}
	return nil
}

// bindNames binds users' names to their ids: all of them or, on a conflict, none.
func bindNames(in *core.Interner, users []User) error {
	var names []string
	var ids []int
	for _, u := range users {
		if u.Name != "" {
			names, ids = append(names, u.Name), append(ids, int(u.ID))
		}
	}
	return in.BindAll(names, ids)
}

// AddUsersByName registers users by external string name, assigning dense
// ids server-side: a new name gets the next unused id, an existing name
// updates that user's capacity. It returns the ids in name order. The
// batch is atomic (see AddUsers) and the name→id bindings land in the
// server-wide intern table, so every later request that carries a name
// resolves it to a dense int once, at the decode edge.
func (s *Server) AddUsersByName(capacity float64, names ...string) ([]UserID, error) {
	if len(names) == 0 {
		return nil, s.writable()
	}
	ids := make([]UserID, len(names))
	err := s.write(nil, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		nextID := tx.W.nextUserID
		batch := make([]User, len(names))
		var fresh map[string]UserID // names first seen in this batch
		for i, name := range names {
			if name == "" {
				return 0, nil, errors.New("eta2: empty user name")
			}
			if id, ok := s.interner.Lookup(name); ok {
				ids[i] = UserID(id)
			} else if id, dup := fresh[name]; dup {
				ids[i] = id
			} else {
				if fresh == nil {
					fresh = make(map[string]UserID, len(names)) //eta2:allocdiscipline-ok registration path, not per-observation ingest
				}
				ids[i] = nextID
				fresh[name] = nextID
				nextID++
			}
			batch[i] = User{ID: ids[i], Capacity: capacity, Name: name}
		}
		lsn, err := s.addUsers(tx, batch)
		return lsn, nil, err
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// ResolveUser returns the dense user id bound to an external name (via
// AddUsersByName or a named AddUsers batch). It is lock-free.
func (s *Server) ResolveUser(name string) (UserID, bool) {
	id, ok := s.interner.Lookup(name)
	return UserID(id), ok
}

// UserName returns the external name bound to a user id, or "" when the
// user is unnamed or unknown. This is the response-encoding edge of the
// intern table: downstream state keys on dense ids only, and the string
// form is recovered here. Lock-free.
func (s *Server) UserName(id UserID) string {
	st := s.st.Load()
	if i, ok := st.userPos[id]; ok {
		return st.users[i].Name
	}
	return ""
}

// NumUsers returns the number of registered users.
func (s *Server) NumUsers() int {
	return len(s.st.Load().users)
}

// ErrNoEmbedder is returned when a described task is created on a server
// built without WithEmbedder.
var ErrNoEmbedder = errors.New("eta2: described tasks require WithEmbedder; set DomainHint otherwise")

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
		b, err := s.prepareCreateTasks(tx, specs)
		if err != nil {
			return 0, nil, err
		}
		j, err := s.journalBuffered(tx, encodeEvent(nil, walEvent{Kind: eventCreateTasks, Specs: specs}))
		if err != nil {
			return 0, nil, err
		}
		ids, err = s.applyCreateTasks(tx, j, b)
		return j.lsn, nil, err
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// taskBatch is a prepared create_tasks batch and its described tasks' vectors.
type taskBatch struct {
	tasks     []core.Task
	described []TaskID
	vectors   []semantic.TaskVector
}

// prepareCreateTasks validates every spec and vectorizes the described ones
// without touching server state, numbering the tasks from the working task
// count: the batch is applied in the same Write.
func (s *Server) prepareCreateTasks(tx *rcu.Tx[serverState], specs []TaskSpec) (taskBatch, error) {
	b := taskBatch{tasks: make([]core.Task, 0, len(specs))}
	for i, spec := range specs {
		t := core.Task{
			ID:          TaskID(len(tx.W.tasks) + i),
			Description: spec.Description,
			Domain:      spec.DomainHint,
			ProcTime:    spec.ProcTime,
			Cost:        spec.Cost,
			Day:         tx.W.day,
		}
		if t.Cost == 0 { //eta2:floatcmp-ok exact zero is the unset-field sentinel, never a computed value
			t.Cost = 1
		}
		if err := t.Validate(); err != nil {
			return b, fmt.Errorf("eta2: %w", err)
		}
		if spec.DomainHint == DomainNone {
			tv, err := s.domains.Vectorize(spec.Description)
			if errors.Is(err, loop.ErrNoEmbedder) {
				return b, ErrNoEmbedder
			}
			if err != nil {
				return b, fmt.Errorf("eta2: %w", err)
			}
			b.described, b.vectors = append(b.described, t.ID), append(b.vectors, tv)
		}
		b.tasks = append(b.tasks, t)
	}
	return b, nil
}

// applyCreateTasks appends a journaled batch and identifies its described
// tasks' domains. Identify cannot fail here: every vector came from this
// identifier's own embedder, whose dimension RestoreDomains held saved ones to.
func (s *Server) applyCreateTasks(tx *rcu.Tx[serverState], _ journaled, b taskBatch) ([]TaskID, error) {
	// domainOf is an append-only column: readers hold a published header
	// that ends before this batch, so the batch's hints (DomainNone for a
	// described task, until Identify below) are appended in place.
	ids := make([]TaskID, len(b.tasks))
	for i, t := range b.tasks {
		tx.W.domainOf = append(tx.W.domainOf, t.Domain)
		ids[i] = t.ID
	}
	tx.W.domainCount = new(atomic.Int64) // of the column as this batch leaves it
	tx.W.tasks = append(tx.W.tasks, b.tasks...)
	tx.W.pending = append(tx.W.pending, ids...)

	if len(b.described) > 0 {
		// Identify writes every described task's domain, and a merge moves
		// OLD tasks, whose entries are published: it works on a copy of the
		// column. The published state shares the store too: merges fold
		// into a clone. Both are swapped in below.
		domainOf := slices.Clone(tx.W.domainOf)
		var merged *truth.Store
		up, err := s.domains.Identify(b.described, b.vectors, domainOf, func(into, from DomainID) {
			if merged == nil {
				merged = tx.W.store.Clone()
			}
			merged.MergeDomains(into, from)
		})
		if err != nil {
			return nil, fmt.Errorf("eta2: clustering: %w", err)
		}
		tx.W.domainOf = domainOf
		if merged != nil {
			tx.W.store = merged
		}
		ds := s.domains.State()
		tx.W.cluster = &ds
		tx.W.lastNewDomains = append(tx.W.lastNewDomains, up.NewDomains...)
		tx.W.lastMerges += len(up.Merges)
	}
	return ids, nil
}

// Domain returns the expertise domain assigned to a task.
func (s *Server) Domain(id TaskID) DomainID {
	return s.st.Load().domain(id)
}

// NumDomains returns the number of discovered domains (clustered servers
// only; hinted domains are counted by their distinct hints). The count is
// computed at most once per published snapshot — repeat reads against the
// same snapshot are allocation-free.
func (s *Server) NumDomains() int {
	return s.st.Load().numDomains()
}

// ExpertiseInDomain returns the learned expertise of user u in a domain.
func (s *Server) ExpertiseInDomain(u UserID, d DomainID) float64 {
	return s.st.Load().store.Expertise(u, d)
}

// ErrNothingToAllocate is returned when allocation is requested with no
// pending tasks or no users.
var ErrNothingToAllocate = errors.New("eta2: no pending tasks or no users to allocate")

// AllocateMaxQuality solves the max-quality allocation problem for the pending
// tasks: maximize the probability that each task receives accurate data,
// subject to user capacities (Sec. 5.1 of the paper).
func (s *Server) AllocateMaxQuality() (*Allocation, error) {
	var a *Allocation
	err := s.write(nil, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		if len(tx.W.pending) == 0 || len(tx.W.users) == 0 {
			return 0, nil, ErrNothingToAllocate
		}
		res, err := allocation.MaxQuality(tx.W.allocationInput(s.cfg.parallelism), allocation.MaxQualityOptions{})
		if err != nil {
			return 0, nil, fmt.Errorf("eta2: %w", err)
		}
		a = res.Allocation
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
	j, err := s.journalBuffered(tx, encodeEvent(nil, walEvent{Kind: eventAllocate, Pairs: a.Pairs}))
	return j.lsn, nil, err
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
	st := s.st.Load()
	if len(st.pending) == 0 || len(st.users) == 0 {
		return MinCostOutcome{}, ErrNothingToAllocate
	}
	if collect == nil {
		return MinCostOutcome{}, errors.New("eta2: nil collector")
	}
	res, err := loop.MinCost(st.allocationInput(s.cfg.parallelism), allocation.MinCostConfig{
		EpsBar:     params.EpsBar,
		Alpha:      params.ConfAlpha,
		IterBudget: params.IterBudget,
	}, st.store, st.domainOf, s.cfg.truthConfig(), func(pairs []Pair) ([]Observation, error) {
		obs, err := collect(pairs)
		if err == nil {
			err = s.SubmitObservations(obs...)
		}
		return obs, err
	})
	if err != nil {
		return MinCostOutcome{}, fmt.Errorf("eta2: %w", err)
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
	if err := checkObservations(obs, len(st.tasks), st.userPos); err != nil {
		enc.End()
		return err
	}
	// Stamp and encode into pooled scratch before the Write: zero-alloc at
	// steady state (TestIngestJournalPathZeroAlloc).
	eb := obsEventPool.Get().(*obsEventBuf)
	eb.encode(obs, st.day)
	enc.End()

	app := t.StartSpan(trace.SpanJournalAppend)
	if err := s.write(t, func(tx *rcu.Tx[serverState]) (uint64, *trace.Span, error) {
		// The append copies the payload and the apply the observations.
		defer obsEventPool.Put(eb)
		// Tasks and users only grow, so the validation above still holds,
		// but a concurrent CloseTimeStep may have advanced the clock.
		if tx.W.day != st.day {
			eb.encode(obs, tx.W.day)
		}
		j, err := s.journalBuffered(tx, eb.b)
		app.End()
		if err != nil {
			return 0, nil, err
		}
		// The wait for durability begins at the append, so the fsync-wait
		// span (ended in journalCommit) opens before the publish.
		fsync := t.StartSpan(trace.SpanFsyncWait)
		pub := t.StartSpan(trace.SpanPublish)
		s.applyObservations(tx, j, eb.obs)
		pub.End()
		return j.lsn, fsync, nil
	}); err != nil {
		return err
	}
	ingestAllocSample()
	return nil
}

// applyObservations appends a journaled batch to the open day as it was
// journaled, day stamps included.
func (s *Server) applyObservations(tx *rcu.Tx[serverState], _ journaled, obs []Observation) {
	tx.W.observations = append(tx.W.observations, obs...)
	mObsAccepted.Add(uint64(len(obs)))
}

// checkObservations refuses a batch that names a task or a user the server
// does not hold, or reports a value that is not a finite number. Every
// observation passes it before it is journaled, so the close that estimates
// it can index the per-task columns by its task id, and one NaN cannot
// become the truth of its task and the expertise of everyone who reported it.
func checkObservations(obs []Observation, numTasks int, users map[UserID]int32) error {
	for _, o := range obs {
		if int(o.Task) < 0 || int(o.Task) >= numTasks {
			return fmt.Errorf("eta2: observation for unknown task %d", o.Task)
		}
		if _, ok := users[o.User]; !ok {
			return fmt.Errorf("eta2: observation from unknown user %d", o.User)
		}
		if !core.Finite(o.Value) {
			return fmt.Errorf("eta2: observation of task %d by user %d is not a finite value: %g", o.Task, o.User, o.Value)
		}
	}
	return nil
}

// ErrNoObservations is returned by CloseTimeStep when nothing was
// submitted.
var ErrNoObservations = errors.New("eta2: no observations submitted this time step")

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
		step, err := tx.W.estimateStep(s.cfg.truthConfig())
		est.End()
		if err != nil {
			return 0, nil, err
		}
		app := t.StartSpan(trace.SpanJournalAppend)
		j, err := s.journalBuffered(tx, encodeEvent(nil, walEvent{Kind: eventCloseStep}))
		app.End()
		if err != nil {
			return 0, nil, err
		}
		fsync := t.StartSpan(trace.SpanFsyncWait) // the wait begins at the append; ended by journalCommit
		pub := t.StartSpan(trace.SpanPublish)
		report = s.applyClose(tx, j, step)
		pub.End()
		return j.lsn, fsync, nil
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

// applyClose commits a journaled close: the estimate's store and truths are
// swapped in, the day's pending state is cleared and the clock advances.
func (s *Server) applyClose(tx *rcu.Tx[serverState], _ journaled, step stepEstimate) StepReport {
	tx.W.store = step.store
	report := StepReport{
		Day:           tx.W.day,
		MLEIterations: step.res.Iterations,
		Converged:     step.res.Converged,
		NewDomains:    tx.W.lastNewDomains,
		MergedDomains: tx.W.lastMerges,
	}
	tx.W.lastNewDomains, tx.W.lastMerges = nil, 0
	// Readers hold the published truths column and a close may re-estimate
	// an old task, so the step's estimates land in a copy that reaches
	// every task, swapped in with the cloned store.
	truths := make([]TruthEstimate, len(tx.W.tasks))
	copy(truths, tx.W.truths)
	for _, tid := range step.table.Tasks() {
		est := TruthEstimate{
			Task:         tid,
			Value:        step.res.Mu[tid],
			Base:         step.res.Sigma[tid],
			Observations: len(step.table.ForTask(tid)),
		}
		truths[tid] = est
		report.Estimates = append(report.Estimates, est)
	}
	tx.W.truths = truths

	tx.W.observations = nil
	tx.W.pending = nil
	tx.W.day++
	mStepsClosed.Inc()
	s.compactIfOwed(tx)
	return report
}

// Truth returns the latest truth estimate for a task.
func (s *Server) Truth(id TaskID) (TruthEstimate, bool) {
	return s.st.Load().truth(id)
}

// Day returns the server's current time-step index.
func (s *Server) Day() int {
	return s.st.Load().day
}
