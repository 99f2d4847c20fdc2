package core

// DenseObs is one observation inside a DenseIndex bucket. User is the dense
// user index (not the sparse UserID), so hot loops can address flat
// parameter slices directly.
type DenseObs struct {
	User  int32
	Value float64
}

// UserDenseObs is one observation inside a DenseIndex per-user bucket, with
// the task as a dense index.
type UserDenseObs struct {
	Task  int32
	Value float64
}

// DenseIndex is a CSR-style view of an observation set: task and user IDs
// are interned once into dense indices (0..NumTasks-1, 0..NumUsers-1, in
// sorted-ID order), and observations are stored in two contiguous bucket
// arrays — grouped by task and grouped by user. The truth-analysis inner
// loops iterate these buckets with pure slice arithmetic instead of the
// hash-map lookups an ObservationTable requires per observation.
//
// Bucket order matches the ObservationTable exactly: tasks (users) in
// ascending ID order, observations within a bucket in insertion order. That
// makes floating-point accumulations over a DenseIndex bit-identical to the
// equivalent loops over the table.
type DenseIndex struct {
	taskIDs []TaskID
	userIDs []UserID
	taskIdx map[TaskID]int32
	userIdx map[UserID]int32

	// CSR by task: observations of dense task t are
	// taskObs[taskStart[t]:taskStart[t+1]].
	taskStart []int32
	taskObs   []DenseObs

	// CSR by user: observations of dense user u are
	// userObs[userStart[u]:userStart[u+1]].
	userStart []int32
	userObs   []UserDenseObs
}

// NewDenseIndex builds a dense index over the observations of t. The table
// is not retained.
func NewDenseIndex(t *ObservationTable) *DenseIndex {
	d := &DenseIndex{}
	if t == nil || t.Len() == 0 {
		return d
	}
	d.taskIDs = t.Tasks()
	d.userIDs = t.Users()
	d.taskIdx = make(map[TaskID]int32, len(d.taskIDs))
	for i, id := range d.taskIDs {
		d.taskIdx[id] = int32(i)
	}
	d.userIdx = make(map[UserID]int32, len(d.userIDs))
	for i, id := range d.userIDs {
		d.userIdx[id] = int32(i)
	}

	n := t.Len()
	d.taskStart = make([]int32, len(d.taskIDs)+1)
	d.taskObs = make([]DenseObs, 0, n)
	for _, id := range d.taskIDs {
		for _, o := range t.ForTask(id) {
			d.taskObs = append(d.taskObs, DenseObs{User: d.userIdx[o.User], Value: o.Value})
		}
		d.taskStart[d.taskIdx[id]+1] = int32(len(d.taskObs))
	}

	d.userStart = make([]int32, len(d.userIDs)+1)
	d.userObs = make([]UserDenseObs, 0, n)
	for _, id := range d.userIDs {
		for _, o := range t.ForUser(id) {
			d.userObs = append(d.userObs, UserDenseObs{Task: d.taskIdx[o.Task], Value: o.Value})
		}
		d.userStart[d.userIdx[id]+1] = int32(len(d.userObs))
	}
	return d
}

// Len returns the total number of indexed observations.
func (d *DenseIndex) Len() int { return len(d.taskObs) }

// NumTasks returns the number of distinct tasks.
func (d *DenseIndex) NumTasks() int { return len(d.taskIDs) }

// NumUsers returns the number of distinct users.
func (d *DenseIndex) NumUsers() int { return len(d.userIDs) }

// TaskID returns the sparse ID of dense task t.
func (d *DenseIndex) TaskID(t int) TaskID { return d.taskIDs[t] }

// UserID returns the sparse ID of dense user u.
func (d *DenseIndex) UserID(u int) UserID { return d.userIDs[u] }

// TaskObs returns the bucket of dense task t, in insertion order. The slice
// is owned by the index and must not be mutated.
func (d *DenseIndex) TaskObs(t int) []DenseObs {
	return d.taskObs[d.taskStart[t]:d.taskStart[t+1]]
}

// UserObs returns the bucket of dense user u, in insertion order. The slice
// is owned by the index and must not be mutated.
func (d *DenseIndex) UserObs(u int) []UserDenseObs {
	return d.userObs[d.userStart[u]:d.userStart[u+1]]
}

// TaskLen returns the observation count of dense task t without
// materializing the bucket.
func (d *DenseIndex) TaskLen(t int) int {
	return int(d.taskStart[t+1] - d.taskStart[t])
}
