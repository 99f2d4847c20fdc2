package state

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"eta2/internal/core"
	"eta2/internal/loop"
	"eta2/internal/semantic"
	"eta2/internal/truth"
)

// Every mutation is prepared against the working state (validated, read-only),
// journaled (Append), then applied — the apply taking Append's token — in one
// Write of the server's state cell. Replay runs the same prepare and apply
// methods for a record already in the journal.

// CheckUsers validates a batch and its name bindings against st without
// changing it. Every check runs before journaling: a record that could not
// re-apply on replay must never reach the WAL.
func (st *State) CheckUsers(users []User) error {
	var batchName map[UserID]string // lazily built: unnamed batches skip all of this
	var batchID map[string]UserID
	for _, u := range users {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("eta2: %w", err)
		}
		if u.Name == "" {
			continue
		}
		if id, ok := st.userByName[u.Name]; ok && id != u.ID {
			return fmt.Errorf("eta2: user name %q already bound to id %d", u.Name, id)
		}
		if i, ok := st.userPos[u.ID]; ok {
			if prev := st.users[i].Name; prev != "" && prev != u.Name {
				return fmt.Errorf("eta2: user %d already named %q, cannot rename to %q", u.ID, prev, u.Name)
			}
		}
		if batchName == nil {
			batchName, batchID = make(map[UserID]string, len(users)), make(map[string]UserID, len(users)) //eta2:allocdiscipline-ok registration path, not per-observation ingest
		}
		if prev, ok := batchName[u.ID]; ok && prev != u.Name {
			return fmt.Errorf("eta2: user %d named both %q and %q in one batch", u.ID, prev, u.Name)
		}
		if prev, ok := batchID[u.Name]; ok && prev != u.ID {
			return fmt.Errorf("eta2: user name %q given to both %d and %d in one batch", u.Name, prev, u.ID)
		}
		batchName[u.ID], batchID[u.Name] = u.Name, u.ID
	}
	return nil
}

// NameUsers returns the batch that registers names with capacity: a name st
// binds keeps its id, a new one gets the next unused id, in name order.
func (st *State) NameUsers(capacity float64, names []string) ([]User, error) {
	nextID := st.nextUserID
	batch := make([]User, len(names))
	var fresh map[string]UserID // names first seen in this batch
	for i, name := range names {
		if name == "" {
			return nil, errors.New("eta2: empty user name")
		}
		id, ok := st.userByName[name]
		if !ok {
			if id, ok = fresh[name]; !ok {
				if fresh == nil {
					fresh = make(map[string]UserID, len(names)) //eta2:allocdiscipline-ok registration path, not per-observation ingest
				}
				id, fresh[name] = nextID, nextID
				nextID++
			}
		}
		batch[i] = User{ID: id, Capacity: capacity, Name: name}
	}
	return batch, nil
}

// ApplyAddUsers registers a journaled batch. Names are write-once (renames
// were refused by CheckUsers) and replay applies the same merge, so live and
// recovered state agree.
func (st *State) ApplyAddUsers(_ journaled, users []User) {
	*st = cloneUsersWith(*st, users)
}

// taskBatch is a prepared create_tasks batch and its described tasks' vectors.
type taskBatch struct {
	tasks     []core.Task
	described []TaskID
	vectors   []semantic.TaskVector
}

// PrepareCreateTasks validates every spec and vectorizes the described ones
// without touching st, numbering the tasks from its task count: the batch is
// applied in the same Write.
func (st *State) PrepareCreateTasks(specs []TaskSpec) (taskBatch, error) {
	b := taskBatch{tasks: make([]core.Task, 0, len(specs))}
	for i, spec := range specs {
		t := core.Task{
			ID:          TaskID(len(st.tasks) + i),
			Description: spec.Description,
			Domain:      spec.DomainHint,
			ProcTime:    spec.ProcTime,
			Cost:        spec.Cost,
			Day:         st.day,
		}
		if t.Cost == 0 { //eta2:floatcmp-ok exact zero is the unset-field sentinel, never a computed value
			t.Cost = 1
		}
		if err := t.Validate(); err != nil {
			return b, fmt.Errorf("eta2: %w", err)
		}
		if spec.DomainHint == DomainNone {
			tv, err := st.domains.Vectorize(spec.Description)
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

// ApplyCreateTasks appends a journaled batch and identifies its described
// tasks' domains. Identify cannot fail here: every vector came from this
// identifier's own embedder, whose dimension Restore held saved ones to.
func (st *State) ApplyCreateTasks(_ journaled, b taskBatch) ([]TaskID, error) {
	// domainOf is an append-only column: readers hold a published header
	// that ends before this batch, so the batch's hints (DomainNone for a
	// described task, until Identify below) are appended in place.
	ids := make([]TaskID, len(b.tasks))
	for i, t := range b.tasks {
		st.domainOf = append(st.domainOf, t.Domain)
		ids[i] = t.ID
	}
	st.domainCount = new(atomic.Int64) // of the column as this batch leaves it
	st.tasks = append(st.tasks, b.tasks...)
	st.pending = append(st.pending, ids...)

	if len(b.described) > 0 {
		// Identify writes every described task's domain, and a merge moves
		// OLD tasks, whose entries are published: it works on a copy of the
		// column. The published state shares the store too: merges fold
		// into a clone. Both are swapped in below.
		domainOf := slices.Clone(st.domainOf)
		var merged *truth.Store
		up, err := st.domains.Identify(b.described, b.vectors, domainOf, func(into, from DomainID) {
			if merged == nil {
				merged = st.store.Clone()
			}
			merged.MergeDomains(into, from)
		})
		if err != nil {
			return nil, fmt.Errorf("eta2: clustering: %w", err)
		}
		st.domainOf = domainOf
		if merged != nil {
			st.store = merged
		}
		ds := st.domains.State()
		st.cluster = &ds
		st.lastNewDomains = append(st.lastNewDomains, up.NewDomains...)
		st.lastMerges += len(up.Merges)
	}
	return ids, nil
}

// CheckObservations refuses a batch that names a task or a user st does not
// hold, or reports a value that is not a finite number. Every observation
// passes it before it is journaled, so the close that estimates it can index
// the per-task columns by its task id, and one NaN cannot become the truth of
// its task and the expertise of everyone who reported it.
func (st *State) CheckObservations(obs []Observation) error {
	for _, o := range obs {
		if int(o.Task) < 0 || int(o.Task) >= len(st.tasks) {
			return fmt.Errorf("eta2: observation for unknown task %d", o.Task)
		}
		if _, ok := st.userPos[o.User]; !ok {
			return fmt.Errorf("eta2: observation from unknown user %d", o.User)
		}
		if !core.Finite(o.Value) {
			return fmt.Errorf("eta2: observation of task %d by user %d is not a finite value: %g", o.Task, o.User, o.Value)
		}
	}
	return nil
}

// ApplyObservations appends a journaled batch to the open day as it was
// journaled, day stamps included.
func (st *State) ApplyObservations(_ journaled, obs []Observation) {
	st.observations = append(st.observations, obs...)
}

// ApplyClose commits a journaled close: the estimate's store and truths are
// swapped in, the day's pending state is cleared and the clock advances.
func (st *State) ApplyClose(_ journaled, s step) StepReport {
	st.store = s.store
	report := StepReport{
		Day:           st.day,
		MLEIterations: s.res.Iterations,
		Converged:     s.res.Converged,
		NewDomains:    slices.Clone(st.lastNewDomains), // the caller's, not the column a published state holds
		MergedDomains: st.lastMerges,
	}
	st.lastNewDomains, st.lastMerges = nil, 0
	// Readers hold the published truths column and a close may re-estimate
	// an old task, so the step's estimates land in a copy that reaches
	// every task, swapped in with the cloned store.
	truths := make([]TruthEstimate, len(st.tasks))
	copy(truths, st.truths)
	for _, tid := range s.table.Tasks() {
		est := TruthEstimate{
			Task:         tid,
			Value:        s.res.Mu[tid],
			Base:         s.res.Sigma[tid],
			Observations: len(s.table.ForTask(tid)),
		}
		truths[tid] = est
		report.Estimates = append(report.Estimates, est)
	}
	st.truths = truths

	st.observations = nil
	st.pending = nil
	st.day++
	return report
}

// Replay applies a record already in the journal under lsn, for startup
// recovery and for every record a follower applies: prepare → apply, through
// the methods a live mutation runs, with the token minted from the record's
// LSN where a live mutation journals. A close estimates on parallelism
// workers.
func (st *State) Replay(lsn uint64, ev Event, parallelism int) error {
	j := journaled{lsn: lsn}
	switch ev.Kind {
	case EventAddUsers:
		if err := st.CheckUsers(ev.Users); err != nil {
			return err
		}
		st.ApplyAddUsers(j, ev.Users)
	case EventCreateTasks:
		b, err := st.PrepareCreateTasks(ev.Specs)
		if err == nil {
			_, err = st.ApplyCreateTasks(j, b)
		}
		return err
	case EventObservations:
		// Verbatim: re-validating or re-stamping could diverge from the
		// original run. A task this state does not hold is refused here, by
		// LSN, rather than by an index out of range in the close that would
		// estimate it.
		for _, o := range ev.Observations {
			if int(o.Task) < 0 || int(o.Task) >= len(st.tasks) {
				return fmt.Errorf("%w: journal record %d holds an observation for task %d, but the state it applies to holds %d tasks",
					ErrBadState, lsn, o.Task, len(st.tasks))
			}
		}
		st.ApplyObservations(j, ev.Observations)
	case EventAllocate:
		// audit-only: allocation does not mutate the state
	case EventCloseStep:
		s, err := st.EstimateStep(parallelism)
		if err != nil {
			return err
		}
		st.ApplyClose(j, s)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	return nil
}
