package core

import (
	"testing"
	"testing/quick"
)

func TestDenseIndexEmpty(t *testing.T) {
	for _, d := range []*DenseIndex{NewDenseIndex(nil), NewDenseIndex(NewObservationTable(nil))} {
		if d.Len() != 0 || d.NumTasks() != 0 || d.NumUsers() != 0 {
			t.Error("empty index should have no tasks, users or observations")
		}
		if d.TaskIndex(1) != -1 || d.UserIndex(1) != -1 {
			t.Error("lookups on an empty index should miss")
		}
	}
}

func TestDenseIndexLayout(t *testing.T) {
	d := NewDenseIndex(NewObservationTable(sampleObs()))
	if d.Len() != 3 || d.NumTasks() != 2 || d.NumUsers() != 2 {
		t.Fatalf("Len/NumTasks/NumUsers = %d/%d/%d", d.Len(), d.NumTasks(), d.NumUsers())
	}
	// Dense order is ascending ID order.
	if d.TaskID(0) != 1 || d.TaskID(1) != 2 || d.UserID(0) != 10 || d.UserID(1) != 11 {
		t.Errorf("dense order wrong: tasks %v users %v", d.TaskIDs(), d.UserIDs())
	}
	if d.TaskIndex(2) != 1 || d.UserIndex(11) != 1 || d.TaskIndex(99) != -1 {
		t.Error("sparse-to-dense lookups wrong")
	}
	// Task 1 bucket keeps insertion order: (user 10, 1.5) then (user 11, 2.5).
	b := d.TaskObs(0)
	if len(b) != 2 || b[0].User != 0 || b[0].Value != 1.5 || b[1].User != 1 || b[1].Value != 2.5 {
		t.Errorf("task bucket = %v", b)
	}
	if d.TaskLen(0) != 2 || d.TaskLen(1) != 1 {
		t.Errorf("TaskLen = %d, %d", d.TaskLen(0), d.TaskLen(1))
	}
	// User 10 bucket: (task 1, 1.5) then (task 2, 3.5).
	u := d.UserObs(0)
	if len(u) != 2 || u[0].Task != 0 || u[0].Value != 1.5 || u[1].Task != 1 || u[1].Value != 3.5 {
		t.Errorf("user bucket = %v", u)
	}
	if d.UserLen(0) != 2 || d.UserLen(1) != 1 {
		t.Errorf("UserLen = %d, %d", d.UserLen(0), d.UserLen(1))
	}
}

func TestDenseIndexMatchesTable(t *testing.T) {
	// Property: for any observation set, every dense bucket must mirror the
	// table's bucket value-for-value in the same order.
	f := func(raw []uint8) bool {
		obs := make([]Observation, len(raw))
		for i, b := range raw {
			obs[i] = Observation{Task: TaskID(b % 7), User: UserID(b % 5), Value: float64(b)}
		}
		tbl := NewObservationTable(obs)
		d := NewDenseIndex(tbl)
		if d.Len() != tbl.Len() {
			return false
		}
		for ti, id := range d.TaskIDs() {
			want := tbl.ForTask(id)
			got := d.TaskObs(ti)
			if len(got) != len(want) {
				return false
			}
			for k := range got {
				if got[k].Value != want[k].Value || d.UserID(int(got[k].User)) != want[k].User {
					return false
				}
			}
		}
		for ui, id := range d.UserIDs() {
			want := tbl.ForUser(id)
			got := d.UserObs(ui)
			if len(got) != len(want) {
				return false
			}
			for k := range got {
				if got[k].Value != want[k].Value || d.TaskID(int(got[k].Task)) != want[k].Task {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObservationTableCachedIDsInvalidate(t *testing.T) {
	var tbl ObservationTable
	tbl.Add(Observation{Task: 3, User: 7, Value: 1})
	if got := tbl.Tasks(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Tasks = %v", got)
	}
	// Adding an observation for a NEW task must invalidate the cache; one
	// for an existing task must not lose it.
	tbl.Add(Observation{Task: 3, User: 7, Value: 2})
	if got := tbl.Tasks(); len(got) != 1 {
		t.Fatalf("Tasks after same-task add = %v", got)
	}
	tbl.Add(Observation{Task: 1, User: 9, Value: 3})
	if got := tbl.Tasks(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Tasks after new-task add = %v", got)
	}
	if got := tbl.Users(); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("Users = %v", got)
	}
}

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		out := make([]int, 37)
		covered := make([]bool, 37)
		ParallelFor(len(out), workers, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				out[i] = i * i
				if covered[i] {
					t.Errorf("workers=%d: index %d visited twice", workers, i)
				}
				covered[i] = true
			}
		})
		for i := range out {
			if out[i] != i*i || !covered[i] {
				t.Fatalf("workers=%d: index %d not processed", workers, i)
			}
		}
	}
	ParallelFor(0, 4, func(lo, hi, w int) { t.Error("fn called for n=0") })
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers must default to at least 1")
	}
	if Workers(5) != 5 {
		t.Error("explicit worker count not honored")
	}
}

// The lookups below read the index back for the tests; the estimators
// never need them.

// TaskIDs returns all task IDs in dense order (ascending). The slice is
// owned by the index and must not be mutated.
func (d *DenseIndex) TaskIDs() []TaskID { return d.taskIDs }

// UserIDs returns all user IDs in dense order (ascending). The slice is
// owned by the index and must not be mutated.
func (d *DenseIndex) UserIDs() []UserID { return d.userIDs }

// TaskIndex returns the dense index of a task ID, or -1 if absent.
func (d *DenseIndex) TaskIndex(id TaskID) int {
	if i, ok := d.taskIdx[id]; ok {
		return int(i)
	}
	return -1
}

// UserIndex returns the dense index of a user ID, or -1 if absent.
func (d *DenseIndex) UserIndex(id UserID) int {
	if i, ok := d.userIdx[id]; ok {
		return int(i)
	}
	return -1
}

// UserLen returns the observation count of dense user u.
func (d *DenseIndex) UserLen(u int) int {
	return int(d.userStart[u+1] - d.userStart[u])
}
