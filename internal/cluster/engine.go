package cluster

import (
	"errors"
	"fmt"
	"sort"

	"eta2/internal/core"
	"eta2/internal/obs"
)

// DistFunc returns the semantic distance between two items (tasks),
// addressed by the global item indices the Engine assigned at AddItems
// time. Implementations must be symmetric and non-negative.
type DistFunc func(a, b int) float64

// MergeEvent reports that two previously established expertise domains were
// merged because newly arrived tasks pulled them together (second special
// case of paper Sec. 4.2). The truth-analysis module folds the expertise
// accumulators of From into Into and deletes From.
type MergeEvent struct {
	Into core.DomainID
	From core.DomainID
}

// Update describes the outcome of one AddItems round.
type Update struct {
	// Assigned maps every item (old and new) to its current domain.
	Assigned []core.DomainID
	// NewDomains lists domains created this round.
	NewDomains []core.DomainID
	// Merges lists established-domain merges performed this round.
	Merges []MergeEvent
	// DistEvals counts the calls to the pair DistFunc this round made.
	DistEvals int
}

// Engine is the dynamic hierarchical clusterer. It owns the evolving
// partition of tasks into expertise domains: the warm-up batch is clustered
// from scratch and each later batch of new tasks enters as singletons that
// merge into the existing structure (paper Sec. 3.3.2).
type Engine struct {
	gamma  float64
	dist   DistFunc
	points *points // nil: made by New, every row is built from pair distances
	nItems int
	dstar  float64

	// clusters is the current partition; itemCluster maps each item to its
	// index in clusters.
	clusters    []clusterState
	itemCluster []int
	// dmat[i][j] is the exact average-linkage distance between clusters i
	// and j, maintained incrementally.
	dmat [][]float64

	nextDomain    core.DomainID
	pendingMerges []MergeEvent
}

type clusterState struct {
	domain core.DomainID
	items  []int
	// Sufficient statistics of the members' coordinates, kept only by an
	// engine with points (see points.go): Σv and Σ‖v‖² over the covered
	// smallest members, summed left to right in ascending item index.
	sum     []float64
	sq      float64
	covered int
}

// ErrBadGamma is returned for γ outside [0, 1].
var ErrBadGamma = errors.New("cluster: gamma must be in [0, 1]")

// New creates an Engine with termination parameter gamma and the item
// distance function.
func New(gamma float64, dist DistFunc) (*Engine, error) {
	if gamma < 0 || gamma > 1 {
		return nil, ErrBadGamma
	}
	if dist == nil {
		return nil, errors.New("cluster: nil distance function")
	}
	return &Engine{gamma: gamma, dist: dist, nextDomain: core.DomainID(1)}, nil
}

// NumItems returns the number of items clustered so far.
func (e *Engine) NumItems() int { return e.nItems }

// NumDomains returns the number of current expertise domains.
func (e *Engine) NumDomains() int { return len(e.clusters) }

// DStar returns the longest pairwise item distance observed so far.
func (e *Engine) DStar() float64 { return e.dstar }

// Members returns the item members of every current domain.
func (e *Engine) Members() map[core.DomainID][]int {
	out := make(map[core.DomainID][]int, len(e.clusters))
	for _, c := range e.clusters {
		members := make([]int, len(c.items))
		copy(members, c.items)
		sort.Ints(members)
		out[c.domain] = members
	}
	return out
}

// AddItems appends n new items (indices NumItems()..NumItems()+n−1) as
// singleton clusters and re-runs the merging process until the closest
// cluster pair is at least γ·d* apart. It returns the resulting domain
// assignment and any domain creations/merges.
func (e *Engine) AddItems(n int) (Update, error) {
	if n < 0 {
		return Update{}, fmt.Errorf("cluster: cannot add %d items", n)
	}
	timer := obs.StartTimer()
	oldItems := e.nItems
	var batch []float64 // the new items' coordinates, for an engine with points
	if e.points != nil {
		var err error
		if batch, err = e.points.batch(oldItems, n); err != nil {
			return Update{}, err
		}
	}

	// 1. Create singleton slots and extend the distance matrix.
	oldK := len(e.clusters)
	for x := 0; x < n; x++ {
		e.clusters = append(e.clusters, clusterState{items: []int{oldItems + x}})
		e.itemCluster = append(e.itemCluster, oldK+x)
	}
	k := len(e.clusters)
	e.dmat = growMatrix(e.dmat, k)
	e.nItems += n

	// 2. Fill the new singletons' rows of the linkage matrix and update d*.
	var evals int
	if e.points == nil {
		evals = e.pairRows(oldItems)
	} else {
		evals = e.statRows(oldItems, oldK, batch)
	}

	// 3. Build the dendrogram on a working copy and keep merges below the
	// threshold γ·d*.
	threshold := e.gamma * e.dstar
	work := copyMatrix(e.dmat)
	sizes := make([]int, k)
	for i, c := range e.clusters {
		sizes[i] = len(c.items)
	}
	merges := dendrogram(work, sizes)

	applied := 0
	for _, m := range merges {
		if m.D < threshold {
			e.applyMerge(m.A, m.B)
			applied++
		}
	}

	// 4. Compact empty slots, then resolve domain IDs.
	if applied > 0 || n > 0 {
		e.compact()
	}
	if e.points != nil {
		e.settleStats(oldItems, batch)
	}
	up := e.resolveDomains()
	up.DistEvals = evals
	mItems.Add(uint64(n))
	mDistEvals.Add(uint64(evals))
	mMerges.Add(uint64(applied))
	mDomainMerges.Add(uint64(len(up.Merges)))
	mDomains.Set(float64(len(e.clusters)))
	timer.ObserveTo(mAddDur)
	return up, nil
}

// pairRows is the row builder of an engine made by New: it computes the
// distance from each new item to every earlier item, updating d* and
// accumulating per-cluster sums so each new singleton's average-linkage
// distance to every other cluster is exact. It returns the number of pair
// evaluations, n·oldItems + n(n−1)/2.
func (e *Engine) pairRows(oldItems int) (evals int) {
	sums := make([]float64, len(e.clusters))
	for x := oldItems; x < e.nItems; x++ {
		for c := range sums {
			sums[c] = 0
		}
		for y := 0; y < x; y++ {
			d := e.dist(x, y)
			if d > e.dstar {
				e.dstar = d
			}
			sums[e.itemCluster[y]] += d
		}
		evals += x
		xc := e.itemCluster[x]
		for c := range e.clusters {
			if c == xc || len(e.clusters[c].items) == 0 {
				continue
			}
			// Only items with index < x contribute to sums[c]; clusters of
			// later new items are still empty of smaller indices and get
			// filled when those items scan x instead.
			if cnt := countBelow(e.clusters[c].items, x); cnt > 0 {
				avg := sums[c] / float64(cnt)
				e.dmat[xc][c] = avg
				e.dmat[c][xc] = avg
			}
		}
	}
	return evals
}

// applyMerge folds cluster slot b into slot a in the persistent state.
func (e *Engine) applyMerge(a, b int) {
	ca, cb := &e.clusters[a], &e.clusters[b]
	if len(cb.items) == 0 {
		return
	}
	na, nb := float64(len(ca.items)), float64(len(cb.items))
	tot := na + nb
	for c := range e.clusters {
		if c == a || c == b || len(e.clusters[c].items) == 0 {
			continue
		}
		nd := (na*e.dmat[a][c] + nb*e.dmat[b][c]) / tot
		e.dmat[a][c] = nd
		e.dmat[c][a] = nd
	}
	for _, it := range cb.items {
		e.itemCluster[it] = a
	}
	ca.items = append(ca.items, cb.items...)
	// An established cluster's statistics follow it into a cluster of batch
	// items. Two sets of them cannot be added and stay a left-to-right sum,
	// so a merge of two established clusters drops both; settleStats sees
	// that covered no longer counts the old members and sums them afresh.
	if ca.covered == 0 {
		ca.sum, ca.sq, ca.covered = cb.sum, cb.sq, cb.covered
	} else if cb.covered > 0 {
		ca.sum, ca.sq, ca.covered = nil, 0, 0
	}
	cb.sum, cb.sq, cb.covered = nil, 0, 0
	// Keep the established domain if exactly one side has one; prefer the
	// domain of the larger pre-merge side when both have one. Ties go to
	// the older (smaller) domain ID for determinism.
	da, db := ca.domain, cb.domain
	ca.domain = survivorDomain(da, db, na, nb)
	for _, absorbed := range [2]core.DomainID{da, db} {
		if absorbed != core.DomainNone && absorbed != ca.domain {
			e.pendingMerges = append(e.pendingMerges, MergeEvent{Into: ca.domain, From: absorbed})
		}
	}
	cb.items = nil
	cb.domain = core.DomainNone
}

// survivorDomain picks the domain that survives a merge.
func survivorDomain(da, db core.DomainID, na, nb float64) core.DomainID {
	switch {
	case da == core.DomainNone:
		return db
	case db == core.DomainNone:
		return da
	case na > nb:
		return da
	case nb > na:
		return db
	case da < db:
		return da
	default:
		return db
	}
}

// compact removes empty cluster slots and remaps itemCluster and dmat.
func (e *Engine) compact() {
	remap := make([]int, len(e.clusters))
	var kept []clusterState
	for i, c := range e.clusters {
		if len(c.items) == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = len(kept)
		kept = append(kept, c)
	}
	nd := make([][]float64, len(kept))
	for i := range nd {
		nd[i] = make([]float64, len(kept))
	}
	for i, ri := range remap {
		if ri < 0 {
			continue
		}
		for j, rj := range remap {
			if rj < 0 {
				continue
			}
			nd[ri][rj] = e.dmat[i][j]
		}
	}
	for it, c := range e.itemCluster {
		e.itemCluster[it] = remap[c]
	}
	e.clusters = kept
	e.dmat = nd
}

// resolveDomains assigns fresh domain IDs to new clusters, collects merge
// events and produces the Update.
func (e *Engine) resolveDomains() Update {
	var up Update
	for i := range e.clusters {
		if e.clusters[i].domain == core.DomainNone {
			e.clusters[i].domain = e.nextDomain
			up.NewDomains = append(up.NewDomains, e.nextDomain)
			e.nextDomain++
		}
	}
	up.Merges = e.pendingMerges
	e.pendingMerges = nil
	up.Assigned = make([]core.DomainID, e.nItems)
	for it := range up.Assigned {
		up.Assigned[it] = e.clusters[e.itemCluster[it]].domain
	}
	return up
}

// countBelow returns how many members of items are < x. Members are in
// insertion order, not sorted, so this is a linear scan; cluster sizes are
// small relative to the total item count.
func countBelow(items []int, x int) int {
	n := 0
	for _, it := range items {
		if it < x {
			n++
		}
	}
	return n
}

func growMatrix(m [][]float64, k int) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, k)
		if i < len(m) {
			copy(out[i], m[i])
		}
	}
	return out
}

func copyMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = make([]float64, len(m[i]))
		copy(out[i], m[i])
	}
	return out
}
