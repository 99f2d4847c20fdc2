package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"eta2/internal/allocation"
	"eta2/internal/dataset"
	"eta2/internal/embedding"
	"eta2/internal/rcu"
	"eta2/internal/truth"
)

// cell drives a State as the server does — prepare, apply, publish in one
// Write — on an in-memory node, whose records are journaled nowhere.
type cell struct {
	t *testing.T
	rcu.Cell[State]
}

func (c *cell) write(fn func(st *State) error) {
	c.t.Helper()
	if err := c.Write(func(tx *rcu.Tx[State]) error { return fn(&tx.W) }); err != nil {
		c.t.Fatal(err)
	}
}

func (c *cell) addUsers(users ...User) {
	c.t.Helper()
	c.write(func(st *State) error {
		if err := st.CheckUsers(users); err != nil {
			return err
		}
		st.ApplyAddUsers(journaled{}, users)
		return nil
	})
}

func (c *cell) createTasks(specs ...TaskSpec) {
	c.t.Helper()
	c.write(func(st *State) error {
		b, err := st.PrepareCreateTasks(specs)
		if err == nil {
			_, err = st.ApplyCreateTasks(journaled{}, b)
		}
		return err
	})
}

func (c *cell) allocate() (a *Allocation) {
	c.t.Helper()
	c.write(func(st *State) (err error) {
		a, err = st.AllocateMaxQuality(1)
		return err
	})
	return a
}

func (c *cell) submit(obs ...Observation) {
	c.t.Helper()
	c.write(func(st *State) error {
		if err := st.CheckObservations(obs); err != nil {
			return err
		}
		for i := range obs {
			obs[i].Day = st.day
		}
		st.ApplyObservations(journaled{}, obs)
		return nil
	})
}

func (c *cell) close() (rep StepReport) {
	c.t.Helper()
	c.write(func(st *State) error {
		s, err := st.EstimateStep(1)
		if err == nil {
			rep = st.ApplyClose(journaled{}, s)
		}
		return err
	})
	return rep
}

// frozenView is what one published State answered, for every task it holds,
// the first time it was asked, a copy of the rows its expertise store had
// then, and the snapshot it encoded to then — which reads every container
// the state shares with the writer.
type frozenView struct {
	st      *State
	domains []DomainID
	truths  []TruthEstimate
	known   []bool
	store   []truth.StoreEntry
	encoded []byte
}

func encodedState(st *State) []byte {
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

func viewOf(st *State) frozenView {
	v := frozenView{st: st, store: slices.Clone(st.store.State().Entries), encoded: encodedState(st)}
	for id := range st.tasks {
		est, ok := st.Truth(TaskID(id))
		v.domains, v.truths, v.known = append(v.domains, st.Domain(TaskID(id))), append(v.truths, est), append(v.known, ok)
	}
	return v
}

// check re-reads the state and reports the first answer that moved.
func (v frozenView) check() error {
	where := fmt.Sprintf("state at day %d, with %d users and %d tasks", v.st.day, len(v.st.users), len(v.st.tasks))
	for i := range v.domains {
		id := TaskID(i)
		if d := v.st.Domain(id); d != v.domains[i] {
			return fmt.Errorf("%s: domain of task %d was %d, now reads %d", where, id, v.domains[i], d)
		}
		if est, ok := v.st.Truth(id); est != v.truths[i] || ok != v.known[i] {
			return fmt.Errorf("%s: truth of task %d was %+v/%v, now reads %+v/%v", where, id, v.truths[i], v.known[i], est, ok)
		}
	}
	if now := v.st.store.State().Entries; !slices.Equal(now, v.store) {
		return fmt.Errorf("%s: its expertise store held %v, now holds %v", where, v.store, now)
	}
	if !bytes.Equal(encodedState(v.st), v.encoded) {
		return fmt.Errorf("%s: it no longer encodes to the snapshot it encoded to first", where)
	}
	return nil
}

// readsLeaveFrozen runs on a published state each computation that hands its
// columns to allocation, loop or truth — a max-quality solve, min-cost rounds
// whose collector answers every pair, a close's estimate — and then the
// compaction's encode, and reports the first after which the state no longer
// encodes to the snapshot it encoded to before. Those packages are handed the
// columns themselves, not copies: a write through one is a write into every
// state that shares it.
func readsLeaveFrozen(st *State) error {
	before := encodedState(st)
	for _, read := range []struct {
		name string
		run  func() error
	}{
		{"a max-quality allocation", func() error {
			_, err := st.AllocateMaxQuality(1)
			return err
		}},
		{"min-cost rounds", func() error {
			_, err := st.MinCost(allocation.MinCostConfig{IterBudget: 60}, 1, func(pairs []Pair) ([]Observation, error) {
				obs := make([]Observation, len(pairs))
				for i, p := range pairs {
					obs[i] = Observation{Task: p.Task, User: p.User, Value: float64(p.Task%7) * 3, Day: st.day}
				}
				return obs, nil
			})
			return err
		}},
		{"a close's estimate", func() error {
			_, err := st.EstimateStep(1)
			return err
		}},
		{"a compaction's encode", func() error {
			encodedState(st)
			return nil
		}},
	} {
		if err := read.run(); err != nil {
			return fmt.Errorf("%s on the published state of day %d: %w", read.name, st.day, err)
		}
		if !bytes.Equal(encodedState(st), before) {
			return fmt.Errorf("%s changed the published state of day %d: it no longer encodes to the snapshot it encoded to before", read.name, st.day)
		}
	}
	return nil
}

// TestPublishedColumnsStayFrozen holds the published state to DESIGN §11
// rule 2 from the reader's side: a reader that loaded a State keeps getting
// the answers it got first, for every task it holds, and the snapshot it
// encoded first, byte for byte, while the writer registers users (new ids,
// ids out of order, a new capacity for a registered one), appends hinted
// tasks in place, runs described creates whose clustering moves old tasks
// (the script merges two established domains in its third batch), takes
// submits, and closes steps that re-estimate a task of an earlier day — and
// the same for the rows of the state's expertise store, which those closes
// decay and add to and those merges fold. Once a day, with tasks pending and
// observations buffered, the computations that read a published state
// (readsLeaveFrozen) must leave it encoding to the same bytes. The writer's
// own goroutine also holds the state published after every mutation, so the
// check does not depend on how the readers were scheduled; under -race, a
// writer that stored below a published header is a reported race as well.
func TestPublishedColumnsStayFrozen(t *testing.T) {
	st, err := New(0.7, 0.5, allocation.DefaultEpsilon, embedding.NewHashEmbedder(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	c := &cell{t: t}
	c.write(func(w *State) error {
		*w = st
		return nil
	})
	users := make([]User, 10)
	for i := range users {
		users[i] = User{ID: UserID(i), Capacity: 8}
	}
	c.addUsers(users...)

	// Spare capacity, so that no append of the script reallocates a
	// column: only the copy a writer makes keeps a published prefix frozen.
	c.write(func(w *State) error {
		w.domainOf = slices.Grow(w.domainOf, 256)
		w.users = slices.Grow(w.users, 64)
		return nil
	})

	done := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			var held []frozenView
			verify := func() error {
				for _, v := range held {
					if err := v.check(); err != nil {
						return err
					}
				}
				return nil
			}
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				if st := c.Load(); len(held) == 0 || held[len(held)-1].st != st {
					held = append(held, viewOf(st))
					if len(held) == 1 {
						ready.Done()
					}
				}
				if err := verify(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	ready.Wait()

	var held []frozenView
	hold := func() { held = append(held, viewOf(c.Load())) }
	described := dataset.SurveyLike(11).Tasks
	rng := rand.New(rand.NewSource(9))
	merges := 0
	for day := 0; day < 3; day++ {
		// Ids descending from day to day, one of them named, then a batch
		// that registers nobody and changes user 0.
		c.addUsers(User{ID: UserID(40 - day), Capacity: 4}, User{ID: UserID(30 - day), Capacity: 4, Name: fmt.Sprint("u", 30-day)})
		hold()
		c.addUsers(User{ID: 0, Capacity: 9 + float64(day)})
		hold()
		c.createTasks(TaskSpec{ProcTime: 1, DomainHint: 40}, TaskSpec{ProcTime: 1, DomainHint: 41})
		hold()
		var specs []TaskSpec
		for _, task := range described[day*20 : (day+1)*20] {
			specs = append(specs, TaskSpec{Description: task.Description, ProcTime: 1})
		}
		c.createTasks(specs...)
		hold()
		alloc := c.allocate()
		obs := []Observation{{Task: 0, User: UserID(day), Value: 3}, {Task: 2, User: UserID(day), Value: 6}} // tasks of day 0, every day
		for _, p := range alloc.Pairs {
			obs = append(obs, Observation{Task: p.Task, User: p.User, Value: float64(p.Task%7)*3 + rng.NormFloat64()/(1+float64(p.User))})
		}
		c.submit(obs...)
		hold()
		if err := readsLeaveFrozen(c.Load()); err != nil {
			t.Error(err)
		}
		merges += c.close().MergedDomains
		hold()
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for _, v := range held {
		if err := v.check(); err != nil {
			t.Error(err)
		}
	}

	// The script must have reached the paths that change old entries.
	if merges == 0 {
		t.Error("no established domains merged: no described create moved an old task")
	}
	moved, reestimated, folded, updated := false, false, false, false
	final := viewOf(c.Load())
	for i, v := range held {
		for k := range v.domains {
			moved = moved || v.domains[k] != DomainNone && v.domains[k] != final.domains[k]
			reestimated = reestimated || v.known[k] && v.truths[k] != final.truths[k]
		}
		// A create publishes a store of its own only when it merged domains.
		folded = folded || i > 0 && v.st.day == held[i-1].st.day && len(v.store) < len(held[i-1].store)
		updated = updated || v.st.users[0] != final.st.users[0]
	}
	if !moved || !reestimated || !folded || !updated {
		t.Errorf("held states never differ (domain moved: %v, truth re-estimated: %v, store rows folded by a create: %v, registered user changed: %v): nothing was at stake", moved, reestimated, folded, updated)
	}
}
