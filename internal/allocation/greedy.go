package allocation

import (
	"cmp"
	"math"
	"slices"

	"eta2/internal/core"
)

// problem is what stays constant during one solve: expertise does not
// change within an allocation round, so both max-quality passes and every
// min-cost iteration read the same p_ij matrix and candidate orders.
type problem struct {
	in Input
	// p[ui*len(in.Tasks)+ti] is p_ij (Eq. 11) for in.Users[ui], in.Tasks[ti]:
	// the one users×tasks allocation of a solve.
	p []float64
	// order[ti] lists the users with p_ij > 0 (NaN fails) by p_ij
	// descending, then user index ascending. Tasks whose p columns are
	// bitwise equal (in practice: tasks of one domain) share one slice.
	order [][]int32
}

// newProblem evaluates Expertise and Φ once per pair and ranks each task's
// candidates. Rows of p, then column sorts, fan out over the worker pool,
// each done by exactly one worker: the result is the same for any count.
func newProblem(in Input) *problem {
	nU, nT := len(in.Users), len(in.Tasks)
	pr := &problem{in: in, p: make([]float64, nU*nT), order: make([][]int32, nT)}
	workers := core.Workers(in.Parallelism)
	core.ParallelFor(nU, workers, func(lo, hi, _ int) {
		for ui := lo; ui < hi; ui++ {
			row := pr.p[ui*nT : (ui+1)*nT]
			uid := in.Users[ui].ID
			for ti, t := range in.Tasks {
				row[ti] = AccuracyProb(in.Epsilon, in.Expertise(uid, t.ID))
			}
		}
	})

	// Group equal columns: FNV-1a over each column's bits finds the
	// suspects, a bitwise comparison confirms them. A hash collision between
	// unequal columns only costs the later task a sort of its own.
	hash := make([]uint64, nT)
	for ui := 0; ui < nU; ui++ {
		for ti, v := range pr.p[ui*nT : (ui+1)*nT] {
			hash[ti] = (hash[ti] ^ math.Float64bits(v)) * 1099511628211
		}
	}
	same := func(a, b int) bool {
		for i := 0; i < nU*nT; i += nT {
			if math.Float64bits(pr.p[i+a]) != math.Float64bits(pr.p[i+b]) {
				return false
			}
		}
		return true
	}
	first := make(map[uint64]int, 16) // column hash → first task that had it
	sharedWith := make([]int, nT)     // the task whose order ti reuses; ti itself if none
	var distinct []int
	for ti := range sharedWith {
		r, seen := first[hash[ti]]
		if !seen {
			first[hash[ti]] = ti
		}
		if !seen || !same(r, ti) {
			r = ti
			distinct = append(distinct, ti)
		}
		sharedWith[ti] = r
	}

	core.ParallelFor(len(distinct), workers, func(lo, hi, _ int) {
		col := make([]float64, nU) // the column being sorted, contiguous
		for _, ti := range distinct[lo:hi] {
			ord := make([]int32, 0, nU)
			for ui := range col {
				col[ui] = pr.p[ui*nT+ti]
				if col[ui] > 0 {
					ord = append(ord, int32(ui))
				}
			}
			slices.SortFunc(ord, func(a, b int32) int {
				return cmp.Or(cmp.Compare(col[b], col[a]), cmp.Compare(a, b))
			})
			pr.order[ti] = ord
		}
	})
	for ti, r := range sharedWith {
		pr.order[ti] = pr.order[r]
	}
	return pr
}

// ledger is the evolving allocation, indexed by position in in.Users and
// in.Tasks: remaining capacities T'_i, the per-task probability p_j that at
// least one allocated user is accurate, and each task's cursor into its
// candidate order. Everything before a cursor is either allocated or can
// never fit again (capacity only shrinks), so the cursor is also the
// "already assigned" record. Min-cost carries one ledger across iterations.
type ledger struct {
	remCap []float64
	pj     []float64
	cursor []int32
	pairs  []core.Pair // in selection order
}

func (pr *problem) newLedger() *ledger {
	l := &ledger{
		remCap: make([]float64, len(pr.in.Users)),
		pj:     make([]float64, len(pr.in.Tasks)),
		cursor: make([]int32, len(pr.in.Tasks)),
	}
	for ui, u := range pr.in.Users {
		l.remCap[ui] = u.Capacity
	}
	return l
}

// objective returns Σ_j p_j in in.Tasks order, the value the max-quality
// problem maximizes (Eq. 12).
func (l *ledger) objective() float64 {
	total := 0.0
	for _, p := range l.pj {
		total += p
	}
	return total
}

// allocation returns the allocated pairs sorted by user then task id.
func (l *ledger) allocation() *core.Allocation {
	pairs := slices.Clone(l.pairs)
	slices.SortFunc(pairs, func(a, b core.Pair) int {
		return cmp.Or(cmp.Compare(a.User, b.User), cmp.Compare(a.Task, b.Task))
	})
	return &core.Allocation{Pairs: pairs}
}

// greedyOptions tunes one run of the greedy selection loop.
type greedyOptions struct {
	// ignoreSize ranks pairs by raw value increase p_ij·(1−p_j) instead of
	// efficiency (value/t_j). This is the "extra step" greedy of
	// Sec. 5.1.2 that restores the ½-approximation guarantee when task
	// processing times differ wildly.
	ignoreSize bool
	// costLimit, when positive, stops selection once the cost of the pairs
	// selected IN THIS RUN would exceed it (Algorithm 2, lines 4–7).
	costLimit float64
	// exclude, by task index, marks tasks that must not receive further
	// allocations (used by min-cost once a task's quality requirement is
	// met). Nil excludes nothing.
	exclude []bool
}

// taskEntry is a task's best feasible pair. Heap order is eff descending,
// then task index ascending; within a task the entry is the feasible user
// of highest p_ij, then lowest user index.
type taskEntry struct {
	eff        float64
	task, user int32
}

func (a taskEntry) before(b taskEntry) bool {
	return a.eff > b.eff || (a.eff >= b.eff && a.task < b.task)
}

func siftDown(h []taskEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// best moves task ti's cursor past the users it can no longer take and
// returns its best feasible pair, or false when the task has no candidate
// of positive efficiency left. For a fixed task the efficiency is monotone
// in p_ij, so no other user of the task can beat the one returned.
func (pr *problem) best(l *ledger, ti int, ignoreSize bool) (taskEntry, bool) {
	t, ord, c := &pr.in.Tasks[ti], pr.order[ti], int(l.cursor[ti])
	for c < len(ord) && l.remCap[ord[c]] < t.ProcTime {
		c++ // Definition 1: infeasible, and capacity never comes back
	}
	l.cursor[ti] = int32(c)
	if c == len(ord) {
		return taskEntry{}, false
	}
	gain := pr.p[int(ord[c])*len(pr.in.Tasks)+ti] * (1 - l.pj[ti]) // Eq. 16
	eff := gain
	if !ignoreSize {
		eff = gain / t.ProcTime // Eq. 17
	}
	return taskEntry{eff: eff, task: int32(ti), user: ord[c]}, eff > 0
}

// runGreedy executes the greedy selection loop of Algorithm 1 on top of l,
// committing selections into it, and returns the pairs selected in this
// run (in selection order) plus their total cost.
//
// Every step selects the feasible pair that is first under the total order
// (efficiency descending, task index ascending, p_ij descending, user index
// ascending); equal efficiencies within a task mean equal p_ij up to the
// rounding of one multiplication, so that is "efficiency, task, user". Only
// a task's best pair can be first, so the heap holds one entry per task.
// It is an exact lazy greedy: stored entries are upper bounds (p_j only
// grows, capacity only shrinks, cursors only advance), so a root whose
// recomputed entry equals the stored one beats every other task's true
// entry; a root that changed is replaced in place and sifted.
func (pr *problem) runGreedy(l *ledger, opts greedyOptions) ([]core.Pair, float64) {
	nT := len(pr.in.Tasks)
	h := make([]taskEntry, 0, nT)
	for ti := 0; ti < nT; ti++ {
		if opts.exclude != nil && opts.exclude[ti] {
			continue
		}
		if e, ok := pr.best(l, ti, opts.ignoreSize); ok {
			h = append(h, e)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	start := len(l.pairs)
	costSpent := 0.0
	for len(h) > 0 {
		top := h[0]
		ti := int(top.task)
		cur, ok := pr.best(l, ti, opts.ignoreSize)
		if !ok || cur != top {
			h[0] = cur
			if !ok { // full, worthless or out of candidates: drop the task
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0)
			continue
		}
		t := &pr.in.Tasks[ti]
		if opts.costLimit > 0 && costSpent+t.Cost > opts.costLimit {
			break // per-iteration budget exhausted (Algorithm 2, line 4)
		}
		pij := pr.p[int(top.user)*nT+ti]
		l.remCap[top.user] -= t.ProcTime
		l.pj[ti] = 1 - (1-l.pj[ti])*(1-pij)
		l.cursor[ti]++ // the root is now stale; the next turn re-enters the task's next candidate
		l.pairs = append(l.pairs, core.Pair{User: pr.in.Users[top.user].ID, Task: t.ID})
		costSpent += t.Cost
	}
	return l.pairs[start:len(l.pairs):len(l.pairs)], costSpent
}
