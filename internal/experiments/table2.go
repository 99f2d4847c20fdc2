package experiments

import (
	"fmt"
	"strings"

	"eta2/internal/simulation"
	"eta2/internal/stats"
)

// Table2Row is one users-per-task bucket of Table 2.
type Table2Row struct {
	// Lo and Hi delimit the number of users assigned to a task.
	Lo, Hi int
	// TaskShare is the fraction of tasks falling in the bucket.
	TaskShare float64
	// AvgExpertise is the mean (estimated) expertise of the users assigned
	// to the bucket's tasks.
	AvgExpertise float64
}

// Table2Result holds the max-quality allocation profile of Table 2.
type Table2Result struct {
	Dataset string
	Rows    []Table2Row
}

// Table2 reproduces Table 2: after max-quality allocation, how many users
// each task receives and the average expertise of those users. Tasks
// allocated to fewer users should show higher average expertise.
func Table2(name string, opts Options) (Table2Result, error) {
	opts.applyDefaults()
	type bucket struct{ lo, hi int }
	buckets := []bucket{{1, 5}, {6, 10}, {11, 15}, {16, 1 << 30}}
	counts := make([]int, len(buckets))
	exps := make([][]float64, len(buckets))
	total := 0

	for r := 0; r < opts.Runs; r++ {
		seed := opts.Seed + int64(r)
		ds, err := makeDataset(name, opts.Seed, 0)
		if err != nil {
			return Table2Result{}, err
		}
		cfg, err := simConfig(ds, simulation.MethodETA2, seed, opts)
		if err != nil {
			return Table2Result{}, err
		}
		run, err := simulation.Run(ds, cfg)
		if err != nil {
			return Table2Result{}, fmt.Errorf("experiments: table2 %s: %w", name, err)
		}
		for _, task := range ds.Tasks { // in id order, not a map's: stats.Mean adds exps up in order
			n := run.UsersPerTask[task.ID]
			for bi, bk := range buckets {
				if n >= bk.lo && n <= bk.hi {
					counts[bi]++
					total++
					exps[bi] = append(exps[bi], run.AvgAllocatedExpertise[task.ID])
					break
				}
			}
		}
	}
	if total == 0 {
		return Table2Result{}, fmt.Errorf("experiments: table2 %s: no allocated tasks", name)
	}

	res := Table2Result{Dataset: name}
	for bi, bk := range buckets {
		if counts[bi] == 0 {
			continue
		}
		res.Rows = append(res.Rows, Table2Row{
			Lo:           bk.lo,
			Hi:           bk.hi,
			TaskShare:    float64(counts[bi]) / float64(total),
			AvgExpertise: stats.Mean(exps[bi]),
		})
	}
	return res, nil
}

// Render prints the bucket table in the paper's layout.
func (r Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 (%s): users assigned per task under max-quality allocation\n", r.Dataset)
	fmt.Fprintf(&b, "%-16s%12s%16s\n", "users assigned", "tasks", "avg expertise")
	for _, row := range r.Rows {
		label := fmt.Sprintf("[%d, %d]", row.Lo, row.Hi)
		if row.Hi >= 1<<30 {
			label = fmt.Sprintf("[%d, +)", row.Lo)
		}
		fmt.Fprintf(&b, "%-16s%11.1f%%%16.2f\n", label, 100*row.TaskShare, row.AvgExpertise)
	}
	return b.String()
}
