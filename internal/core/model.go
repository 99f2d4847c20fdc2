// Package core defines the domain model shared by every ETA² subsystem:
// tasks, users, observations, expertise domains and allocations. It contains
// no behaviour beyond validation and indexing so that the substrate packages
// (clustering, truth analysis, allocation, simulation) can depend on it
// without cycles.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Finite reports whether x is a number a model quantity can be: neither NaN
// nor an infinity. A comparison against a bound lets NaN through, so the
// validators ask this first.
func Finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// TaskID identifies a sensing task. IDs are dense, starting at 0, in the
// order tasks were created.
type TaskID int

// UserID identifies a mobile user (a data source). IDs are dense from 0.
type UserID int

// DomainID identifies an expertise domain. Valid domains start at 1; the
// zero value means "no domain assigned yet" (per the style guide, enums
// start at one so the zero value is detectably unset).
type DomainID int

// DomainNone is the unassigned domain.
const DomainNone DomainID = 0

// Task is a sensing task created at the server.
type Task struct {
	ID TaskID
	// Description is the natural-language task description used for
	// expertise-domain identification (e.g. "what is the noise level around
	// the municipal building").
	Description string
	// Domain is the expertise domain of the task. It is DomainNone until
	// the clustering module assigns one, or pre-set for synthetic datasets
	// whose domains are known to the server (paper Sec. 6.1.3).
	Domain DomainID
	// ProcTime is the processing time t_j needed to complete the task,
	// in hours.
	ProcTime float64
	// Cost is the recruiting cost c_j paid per user allocated to this task.
	Cost float64
	// Day is the time step (day index, from 0) at which the task was
	// created.
	Day int

	// Truth holds generator-side ground truth μ_j. It is used ONLY for
	// evaluation and observation synthesis, never by the estimation
	// pipeline.
	Truth float64
	// Base holds the generator-side base number σ_j used to normalize the
	// task's values. Like Truth, it is hidden from the estimators.
	Base float64
}

// Validate reports whether the task's static fields are usable.
func (t Task) Validate() error {
	if t.ID < 0 {
		return fmt.Errorf("core: task %d: negative id", t.ID)
	}
	if !Finite(t.ProcTime) || t.ProcTime <= 0 {
		return fmt.Errorf("core: task %d: processing time must be positive and finite, got %g", t.ID, t.ProcTime)
	}
	if !Finite(t.Cost) || t.Cost < 0 {
		return fmt.Errorf("core: task %d: cost must be non-negative and finite, got %g", t.ID, t.Cost)
	}
	if t.Base < 0 {
		return fmt.Errorf("core: task %d: negative base number %g", t.ID, t.Base)
	}
	return nil
}

// User is a mobile user that can be recruited for tasks.
type User struct {
	ID UserID
	// Capacity is the processing capability T_i: hours per time step the
	// user can spend on tasks.
	Capacity float64
	// Name is an optional external identifier (device id, account handle)
	// bound to the dense UserID by the server-wide intern table.
	Name string
}

// Validate reports whether the user's fields are usable.
func (u User) Validate() error {
	if u.ID < 0 {
		return fmt.Errorf("core: user %d: negative id", u.ID)
	}
	if !Finite(u.Capacity) || u.Capacity < 0 {
		return fmt.Errorf("core: user %d: capacity must be non-negative and finite, got %g", u.ID, u.Capacity)
	}
	return nil
}

// Observation is one data value reported by a user for a task.
type Observation struct {
	Task  TaskID
	User  UserID
	Value float64
	// Day is the time step at which the observation was collected.
	Day int
}

// Pair is a single (user, task) allocation decision: s_ij = 1.
type Pair struct {
	User UserID
	Task TaskID
}

// Allocation is the result of a task-allocation round.
type Allocation struct {
	Pairs []Pair
}

// ErrDuplicatePair is returned when the same (user, task) pair is added to
// an allocation twice.
var ErrDuplicatePair = errors.New("core: duplicate (user, task) pair in allocation")

// Add appends a pair, rejecting duplicates.
func (a *Allocation) Add(u UserID, t TaskID) error {
	for _, p := range a.Pairs {
		if p.User == u && p.Task == t {
			return ErrDuplicatePair
		}
	}
	a.Pairs = append(a.Pairs, Pair{User: u, Task: t})
	return nil
}

// Len returns the number of allocated pairs, which with unit costs is also
// the total allocation cost.
func (a *Allocation) Len() int { return len(a.Pairs) }

// UsersByTask groups the allocated users per task.
func (a *Allocation) UsersByTask() map[TaskID][]UserID {
	out := make(map[TaskID][]UserID)
	for _, p := range a.Pairs {
		out[p.Task] = append(out[p.Task], p.User)
	}
	return out
}

// TasksByUser groups the allocated tasks per user.
func (a *Allocation) TasksByUser() map[UserID][]TaskID {
	out := make(map[UserID][]TaskID)
	for _, p := range a.Pairs {
		out[p.User] = append(out[p.User], p.Task)
	}
	return out
}

// Cost returns the total recruiting cost of the allocation given the task
// costs: Σ s_ij · c_j.
func (a *Allocation) Cost(costOf func(TaskID) float64) float64 {
	total := 0.0
	for _, p := range a.Pairs {
		total += costOf(p.Task)
	}
	return total
}

// Load returns the per-user total processing time implied by the allocation.
func (a *Allocation) Load(procTimeOf func(TaskID) float64) map[UserID]float64 {
	out := make(map[UserID]float64)
	for _, p := range a.Pairs {
		out[p.User] += procTimeOf(p.Task)
	}
	return out
}
