package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// CoordFunc appends the coordinates of an item to buf and returns the
// extended slice. Every item has the same number of coordinates, and the
// engine's DistFunc is Eq. 2 over them: dist(a, b) = ½·‖v_a − v_b‖².
type CoordFunc func(item int, buf []float64) []float64

// points is what an engine made by NewEuclidean knows beyond pair distances.
//
// Average linkage of a squared Euclidean distance has a closed form in each
// cluster's sufficient statistics (n, Σv, Σ‖v‖²):
//
//	mean over y in c of ½·‖x − y‖² = ½·(‖x‖² + Σ‖y‖²/n − 2·x·Σy/n)
//
// so a new item's row against the existing clusters costs O(clusters·dim),
// not one pair distance per item of history. d*, the diameter of the point
// set, stays exact: items with bit-identical coordinates are at distance 0
// from each other and at equal distances from everything else, so it is the
// diameter of the distinct points, of which reps keeps one item each.
type points struct {
	coords CoordFunc
	dim    int // coordinates per item; meaningful once the engine has an item
	// distinct holds the coordinates' bit patterns of every item so far. It
	// is only ever looked up: reps carries the order.
	distinct map[string]struct{}
	reps     []int  // first item of each distinct point, ascending
	key      []byte // scratch for distinct's keys
}

// NewEuclidean creates an Engine for items that are points: dist must be
// ½·‖v_a − v_b‖² over the coordinates coords returns. It yields the domains
// New yields over the same dist, but builds a new item's linkage to the
// existing clusters from per-cluster statistics and evaluates dist only
// between the items of one batch and, for d*, between distinct points.
func NewEuclidean(gamma float64, dist DistFunc, coords CoordFunc) (*Engine, error) {
	e, err := New(gamma, dist)
	if err != nil {
		return nil, err
	}
	e.points, err = newPoints(coords)
	return e, err
}

func newPoints(coords CoordFunc) (*points, error) {
	if coords == nil {
		return nil, errors.New("cluster: nil coordinate function")
	}
	return &points{coords: coords, distinct: make(map[string]struct{})}, nil
}

// fetch appends item x's coordinates to buf, having checked that it has as
// many as the items before it (item 0 sets the number).
func (p *points) fetch(x int, buf []float64) ([]float64, error) {
	out := p.coords(x, buf)
	got := len(out) - len(buf)
	if x == 0 {
		p.dim = got
	}
	if got != p.dim {
		return nil, fmt.Errorf("item %d has %d coordinates, the items before it %d", x, got, p.dim)
	}
	return out, nil
}

// batch returns the coordinates of items first..first+n−1, end to end. It
// changes nothing, so AddItems can refuse a batch whole.
func (p *points) batch(first, n int) (out []float64, err error) {
	for x := first; x < first+n; x++ {
		if out, err = p.fetch(x, out); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	return out, nil
}

// at returns item x's coordinates within a batch that starts at item first.
func (p *points) at(batch []float64, first, x int) []float64 {
	return batch[(x-first)*p.dim:][:p.dim]
}

// firstSight records item x's point and reports whether no earlier item had
// exactly these coordinates.
func (p *points) firstSight(x int, v []float64) bool {
	p.key = p.key[:0]
	for _, f := range v {
		p.key = binary.LittleEndian.AppendUint64(p.key, math.Float64bits(f))
	}
	if _, seen := p.distinct[string(p.key)]; seen {
		return false
	}
	p.distinct[string(p.key)] = struct{}{}
	p.reps = append(p.reps, x)
	return true
}

func dot(v, w []float64) float64 {
	s := 0.0
	for i, f := range v {
		s += f * w[i]
	}
	return s
}

// add extends the statistics by one member's coordinates.
func (c *clusterState) add(v []float64) {
	if c.sum == nil {
		c.sum = make([]float64, len(v))
	}
	for i, f := range v {
		c.sum[i] += f
	}
	c.sq += dot(v, v)
	c.covered++
}

// statRows is the row builder of an engine made by NewEuclidean. A new
// item's linkage to each cluster that existed before the batch comes from
// the cluster's statistics; pairs within the batch go through dist exactly
// as in pairRows, so those rows and their share of d* are the same bits.
// The rest of d* is the new item against one representative of each point
// seen before the batch, skipped when the item's own point has been seen.
// It returns the number of pair evaluations: n(n−1)/2, plus the number of
// earlier distinct points for every new distinct point.
func (e *Engine) statRows(oldItems, oldK int, batch []float64) (evals int) {
	p := e.points
	oldReps := p.reps
	for x := oldItems; x < e.nItems; x++ {
		v := p.at(batch, oldItems, x)
		xc := e.itemCluster[x]
		xx := dot(v, v)
		for c := 0; c < oldK; c++ {
			cs := &e.clusters[c]
			if cs.covered == 0 {
				continue
			}
			n := float64(cs.covered)
			// Rounding can leave a hair below zero where every pair
			// distance is exactly zero; a linkage is never negative.
			l := math.Max(0, 0.5*(xx+cs.sq/n-2*dot(v, cs.sum)/n))
			e.dmat[xc][c] = l
			e.dmat[c][xc] = l
		}
		for y := oldItems; y < x; y++ {
			d := e.dist(x, y)
			if d > e.dstar {
				e.dstar = d
			}
			yc := e.itemCluster[y]
			e.dmat[xc][yc] = d
			e.dmat[yc][xc] = d
		}
		evals += x - oldItems
		if p.firstSight(x, v) {
			for _, r := range oldReps {
				if d := e.dist(x, r); d > e.dstar {
					e.dstar = d
				}
			}
			evals += len(oldReps)
		}
	}
	return evals
}

// settleStats brings every cluster's statistics up to its members once the
// batch's merges are applied. A cluster of one established cluster plus
// batch items extends its sums by those items in ascending index, all of
// them larger than any older index; a cluster of batch items alone starts
// from zero the same way; only a merge of two established clusters sums its
// members afresh. Each is the left-to-right sum over the members in
// ascending index, which is also what Restore computes: an engine restored
// at any batch boundary carries the same bits as the one that never stopped.
func (e *Engine) settleStats(oldItems int, batch []float64) {
	fresh := make([]int, len(e.clusters))
	for x := oldItems; x < e.nItems; x++ {
		fresh[e.itemCluster[x]]++
	}
	for c := range e.clusters {
		if cs := &e.clusters[c]; cs.covered != len(cs.items)-fresh[c] {
			e.points.sumMembers(cs)
		}
	}
	for x := oldItems; x < e.nItems; x++ {
		if cs := &e.clusters[e.itemCluster[x]]; cs.covered < len(cs.items) {
			cs.add(e.points.at(batch, oldItems, x))
		}
	}
}

// sumMembers computes a cluster's statistics from its members alone.
func (p *points) sumMembers(c *clusterState) {
	members := append([]int(nil), c.items...)
	sort.Ints(members)
	c.sum, c.sq, c.covered = nil, 0, 0
	var v []float64
	for _, it := range members {
		v = p.coords(it, v[:0])
		c.add(v)
	}
}
