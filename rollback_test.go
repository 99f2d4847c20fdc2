package eta2

import (
	"testing"

	"eta2/internal/rcu"
)

// TestJournalFailureLeavesStateUntouched forces every journaled mutation
// to fail at the WAL and checks the server applies nothing: before this
// PR the in-memory state advanced even when the append failed, so a
// restart replayed a journal missing the acknowledged mutations.
func TestJournalFailureLeavesStateUntouched(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}

	if err := s.AddUsers(User{ID: 0, Capacity: 10}, User{ID: 1, Capacity: 10}); err != nil {
		t.Fatal(err)
	}
	ids, err := s.CreateTasks(TaskSpec{ProcTime: 1, DomainHint: 1}, TaskSpec{ProcTime: 1, DomainHint: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{
		{Task: ids[0], User: 0, Value: 5},
		{Task: ids[0], User: 1, Value: 5.2},
		{Task: ids[1], User: 0, Value: 7},
		{Task: ids[1], User: 1, Value: 7.1},
	}
	if err := s.SubmitObservations(obs...); err != nil {
		t.Fatal(err)
	}

	// Sabotage the journal: every AppendBuffered now fails.
	if err := s.st.Load().journal.Close(); err != nil {
		t.Fatal(err)
	}

	// A failed Write publishes nothing, so the checks below read the writers'
	// working copy: an empty Write publishes it, leaks included.
	publishWorking := func() {
		_ = s.st.Write(func(*rcu.Tx[serverState]) error { return nil })
	}
	publishWorking()
	snapshotUsers := s.NumUsers()
	snapshotTasks := s.st.Load().Counts().Tasks
	snapshotObs := s.st.Load().Counts().Observations
	snapshotDay := s.Day()

	if err := s.AddUsers(User{ID: 2, Capacity: 3}); err == nil {
		t.Error("AddUsers succeeded with a dead journal")
	}
	if _, err := s.CreateTasks(TaskSpec{ProcTime: 1, DomainHint: 2}); err == nil {
		t.Error("CreateTasks succeeded with a dead journal")
	}
	if err := s.SubmitObservations(Observation{Task: ids[0], User: 0, Value: 9}); err == nil {
		t.Error("SubmitObservations succeeded with a dead journal")
	}
	if _, err := s.CloseTimeStep(); err == nil {
		t.Error("CloseTimeStep succeeded with a dead journal")
	}
	if _, err := s.AllocateMaxQuality(); err == nil {
		t.Error("AllocateMaxQuality succeeded with a dead journal")
	}
	collected := 0
	if _, err := s.AllocateMinCost(MinCostParams{}, func(pairs []Pair) ([]Observation, error) {
		collected += len(pairs)
		batch := make([]Observation, 0, len(pairs))
		for _, p := range pairs {
			batch = append(batch, Observation{Task: p.Task, User: p.User, Value: 6})
		}
		return batch, nil
	}); err == nil {
		t.Error("AllocateMinCost succeeded with a dead journal")
	}
	if collected == 0 {
		t.Error("AllocateMinCost never handed its collector a pair: the dead journal was not reached")
	}
	if _, err := s.AddUsersByName(3, "carol"); err == nil {
		t.Error("AddUsersByName succeeded with a dead journal")
	}
	if id, ok := s.ResolveUser("carol"); ok {
		t.Errorf("AddUsersByName bound carol to %d through a failed journal", id)
	}

	publishWorking()
	if got := s.NumUsers(); got != snapshotUsers {
		t.Errorf("users leaked through failed journal: %d -> %d", snapshotUsers, got)
	}
	if got := s.st.Load().Counts().Tasks; got != snapshotTasks {
		t.Errorf("tasks leaked through failed journal: %d -> %d", snapshotTasks, got)
	}
	if got := s.st.Load().Counts().Observations; got != snapshotObs {
		t.Errorf("observations leaked through failed journal: %d -> %d", snapshotObs, got)
	}
	if got := s.Day(); got != snapshotDay {
		t.Errorf("day advanced through failed journal: %d -> %d", snapshotDay, got)
	}
	if _, ok := s.Truth(ids[0]); ok {
		t.Error("CloseTimeStep left truths behind despite failing")
	}

	// Recovery must agree with the surviving in-memory state: the four
	// observations were journaled, nothing after them was.
	r, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.NumUsers(); got != snapshotUsers {
		t.Errorf("recovered %d users, want %d", got, snapshotUsers)
	}
	if got := r.st.Load().Counts().Tasks; got != snapshotTasks {
		t.Errorf("recovered %d tasks, want %d", got, snapshotTasks)
	}
	if got := r.st.Load().Counts().Observations; got != snapshotObs {
		t.Errorf("recovered %d observations, want %d", got, snapshotObs)
	}
	if got := r.Day(); got != snapshotDay {
		t.Errorf("recovered day %d, want %d", got, snapshotDay)
	}
}
