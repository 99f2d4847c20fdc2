// Package allocation implements ETA²'s expertise-aware task allocation
// (Sec. 5 of the paper): the NP-hard max-quality problem solved by a greedy
// efficiency heuristic with a ½-approximation guarantee (Algorithm 1 plus
// the size-agnostic second pass), and the iterative min-cost allocator
// (Algorithm 2) that spends at most c° per iteration until every task's
// probabilistic quality requirement is met.
package allocation

import (
	"errors"
	"fmt"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// ExpertiseFunc returns the expertise u_ij of a user for a task (the user's
// expertise in the task's domain).
type ExpertiseFunc func(core.UserID, core.TaskID) float64

// Input is the shared problem description for both allocation problems.
type Input struct {
	// Users to recruit from, with their processing capabilities T_i.
	Users []core.User
	// Tasks to allocate, with processing times t_j and costs c_j.
	Tasks []core.Task
	// Expertise yields u_ij.
	Expertise ExpertiseFunc
	// Epsilon is the accuracy threshold ε of Eq. 11: an observation is
	// "accurate" when its normalized error is below ε. The paper uses 0.1.
	Epsilon float64
	// Parallelism is the number of workers the O(users×tasks) p_ij
	// precompute — done once per solve — and the per-task candidate sorts
	// fan out over; selection itself is sequential. Zero means one worker
	// per available CPU; 1 runs sequentially. When it exceeds 1, Expertise
	// must be safe for concurrent calls (pure functions and read-only
	// lookups are; the server's expertise store qualifies). Results are
	// identical for every value: each user row and each task's order is
	// computed by exactly one worker.
	Parallelism int
}

// DefaultEpsilon is the paper's accuracy threshold ε.
const DefaultEpsilon = 0.1

func (in *Input) applyDefaults() {
	if in.Epsilon <= 0 {
		in.Epsilon = DefaultEpsilon
	}
}

// Validate checks the problem description.
func (in *Input) Validate() error {
	if len(in.Users) == 0 {
		return errors.New("allocation: no users")
	}
	if len(in.Tasks) == 0 {
		return errors.New("allocation: no tasks")
	}
	if in.Expertise == nil {
		return errors.New("allocation: nil expertise function")
	}
	// The ledger is indexed by position, so an id listed twice would get
	// twice its capacity (or two p_j): reject it.
	users := make(map[core.UserID]struct{}, len(in.Users))
	for _, u := range in.Users {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("allocation: %w", err)
		}
		if _, dup := users[u.ID]; dup {
			return fmt.Errorf("allocation: duplicate user id %d", u.ID)
		}
		users[u.ID] = struct{}{}
	}
	tasks := make(map[core.TaskID]struct{}, len(in.Tasks))
	for _, t := range in.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("allocation: %w", err)
		}
		if _, dup := tasks[t.ID]; dup {
			return fmt.Errorf("allocation: duplicate task id %d", t.ID)
		}
		tasks[t.ID] = struct{}{}
	}
	return nil
}

// AccuracyProb returns p_ij = Φ(ε·u) − Φ(−ε·u) (Eq. 11): the probability a
// user of expertise u reports a value within ε base numbers of the truth.
func AccuracyProb(eps, u float64) float64 {
	return stats.AccurateInterval(eps, u)
}
