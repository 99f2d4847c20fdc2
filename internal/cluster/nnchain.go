// Package cluster implements the paper's dynamic hierarchical clustering
// (Sec. 3.3): average-linkage agglomerative clustering that stops merging
// when the closest pair of clusters is at least γ·d* apart, where d* is the
// longest distance between any two tasks seen so far.
//
// The agglomeration itself uses the nearest-neighbor-chain algorithm with
// Lance–Williams updates, which for average linkage produces the same
// dendrogram as naive greedy merging in O(k²) instead of O(k³). Average
// linkage is reducible, hence the dendrogram is monotone (no inversions),
// so "apply every merge with distance < threshold" is exactly the paper's
// "merge closest pairs until the closest distance reaches the threshold".
//
// What feeds the agglomeration — a new item's row of the linkage matrix —
// is built from pair distances to every earlier item (New, any distance) or,
// for points under the paper's Eq. 2, from per-cluster sufficient statistics
// at a cost that does not grow with history (NewEuclidean, points.go).
package cluster

// Merge records one dendrogram merge: cluster slot b was folded into slot a
// at linkage distance D.
type Merge struct {
	A, B int
	D    float64
}

// dendrogram runs average-linkage NN-chain clustering over k initial
// clusters. d is a k×k symmetric matrix of average-linkage distances and
// size the per-cluster element counts; both are modified in place (callers
// pass working copies). The returned merges are in NN-chain discovery
// order, which for a reducible linkage is ancestry-compatible: every
// merge's children appear before it.
func dendrogram(d [][]float64, size []int) []Merge {
	k := len(size)
	active := make([]bool, k)
	nActive := 0
	for i := range active {
		if size[i] > 0 {
			active[i] = true
			nActive++
		}
	}
	if nActive < 2 {
		return nil
	}

	merges := make([]Merge, 0, nActive-1)
	chain := make([]int, 0, nActive)
	for nActive > 1 {
		if len(chain) == 0 {
			// Start a fresh chain from any active cluster.
			for i := range active {
				if active[i] {
					chain = append(chain, i)
					break
				}
			}
		}
		top := chain[len(chain)-1]
		// Find the nearest active neighbor of top, preferring the chain's
		// previous element on ties so reciprocal pairs are detected.
		prev := -1
		if len(chain) > 1 {
			prev = chain[len(chain)-2]
		}
		best, bestD := -1, 0.0
		for j := range active {
			if !active[j] || j == top {
				continue
			}
			dj := d[top][j]
			if best == -1 || dj < bestD || (dj == bestD && j == prev) { //eta2:floatcmp-ok exact-tie preference for the chain predecessor is what makes NN-chain deterministic
				best, bestD = j, dj
			}
		}
		if best == prev && prev != -1 {
			// Reciprocal nearest neighbors: merge top into prev.
			a, b := prev, top
			merges = append(merges, Merge{A: a, B: b, D: bestD})
			mergeLW(d, size, active, a, b)
			nActive--
			chain = chain[:len(chain)-2]
		} else {
			chain = append(chain, best)
		}
	}
	return merges
}

// mergeLW folds cluster b into cluster a using the Lance–Williams update
// for average linkage: d(a∪b, c) = (|a|·d(a,c) + |b|·d(b,c)) / (|a|+|b|).
func mergeLW(d [][]float64, size []int, active []bool, a, b int) {
	na, nb := float64(size[a]), float64(size[b])
	tot := na + nb
	for c := range active {
		if !active[c] || c == a || c == b {
			continue
		}
		nd := (na*d[a][c] + nb*d[b][c]) / tot
		d[a][c] = nd
		d[c][a] = nd
	}
	size[a] += size[b]
	size[b] = 0
	active[b] = false
}
