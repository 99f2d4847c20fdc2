package cluster

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"eta2/internal/core"
	"eta2/internal/stats"
)

// pointDist builds a DistFunc over 2-D points.
func pointDist(pts [][2]float64) DistFunc {
	return func(a, b int) float64 {
		dx := pts[a][0] - pts[b][0]
		dy := pts[a][1] - pts[b][1]
		return math.Sqrt(dx*dx + dy*dy)
	}
}

// naiveGreedy is the reference implementation of the paper's Sec. 3.3.1:
// repeatedly merge the closest pair of clusters (average linkage computed
// directly from item distances) while their distance is below threshold.
func naiveGreedy(n int, dist DistFunc, threshold float64) [][]int {
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	avg := func(a, b []int) float64 {
		s := 0.0
		for _, x := range a {
			for _, y := range b {
				s += dist(x, y)
			}
		}
		return s / float64(len(a)*len(b))
	}
	for len(clusters) > 1 {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if d := avg(clusters[i], clusters[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		if bd >= threshold {
			break
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	return clusters
}

// canonical sorts a partition into a comparable form.
func canonical(clusters [][]int) [][]int {
	out := make([][]int, len(clusters))
	for i, c := range clusters {
		cc := make([]int, len(c))
		copy(cc, c)
		sort.Ints(cc)
		out[i] = cc
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func enginePartition(e *Engine) [][]int {
	var out [][]int
	for _, members := range e.Members() {
		out = append(out, members)
	}
	return canonical(out)
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(-0.1, func(a, b int) float64 { return 0 }); err == nil {
		t.Error("negative gamma accepted")
	}
	if _, err := New(1.1, func(a, b int) float64 { return 0 }); err == nil {
		t.Error("gamma > 1 accepted")
	}
	if _, err := New(0.5, nil); err == nil {
		t.Error("nil distance accepted")
	}
	e, err := New(0.5, func(a, b int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddItems(-1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestMatchesNaiveGreedyProperty(t *testing.T) {
	// The NN-chain + threshold-cut must produce exactly the partition of
	// the paper's naive greedy for random instances (ties have measure
	// zero with continuous random points).
	for trial := 0; trial < 30; trial++ {
		rng := stats.NewRNG(int64(trial))
		n := 5 + rng.Intn(35)
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{rng.Uniform(0, 10), rng.Uniform(0, 10)}
		}
		dist := pointDist(pts)
		gamma := rng.Uniform(0.1, 0.9)

		eng, err := New(gamma, dist)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AddItems(n); err != nil {
			t.Fatal(err)
		}

		// d* = max pairwise distance.
		dstar := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := dist(i, j); d > dstar {
					dstar = d
				}
			}
		}
		if math.Abs(eng.DStar()-dstar) > 1e-12 {
			t.Fatalf("trial %d: DStar = %g, want %g", trial, eng.DStar(), dstar)
		}

		want := canonical(naiveGreedy(n, dist, gamma*dstar))
		got := enginePartition(eng)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d γ=%.2f): partition mismatch\n got %v\nwant %v", trial, n, gamma, got, want)
		}
	}
}

func TestGammaZeroKeepsSingletons(t *testing.T) {
	rng := stats.NewRNG(1)
	pts := make([][2]float64, 10)
	for i := range pts {
		pts[i] = [2]float64{rng.Uniform(0, 1), rng.Uniform(0, 1)}
	}
	eng, _ := New(0, pointDist(pts))
	up, err := eng.AddItems(10)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumDomains() != 10 {
		t.Errorf("gamma=0 produced %d domains, want 10 singletons", eng.NumDomains())
	}
	if len(up.NewDomains) != 10 {
		t.Errorf("NewDomains = %v", up.NewDomains)
	}
}

func TestTwoBlobsSeparate(t *testing.T) {
	// Two tight blobs far apart: moderate gamma must find exactly 2.
	var pts [][2]float64
	rng := stats.NewRNG(2)
	for i := 0; i < 10; i++ {
		pts = append(pts, [2]float64{rng.Uniform(0, 1), rng.Uniform(0, 1)})
	}
	for i := 0; i < 10; i++ {
		pts = append(pts, [2]float64{100 + rng.Uniform(0, 1), rng.Uniform(0, 1)})
	}
	eng, _ := New(0.5, pointDist(pts))
	if _, err := eng.AddItems(20); err != nil {
		t.Fatal(err)
	}
	if eng.NumDomains() != 2 {
		t.Fatalf("found %d domains, want 2", eng.NumDomains())
	}
	// Blob membership must be coherent.
	d0 := eng.Domain(0)
	for i := 1; i < 10; i++ {
		if eng.Domain(i) != d0 {
			t.Fatal("first blob split")
		}
	}
	d1 := eng.Domain(10)
	if d1 == d0 {
		t.Fatal("blobs merged")
	}
	for i := 11; i < 20; i++ {
		if eng.Domain(i) != d1 {
			t.Fatal("second blob split")
		}
	}
}

func TestDynamicAddJoinsExistingDomain(t *testing.T) {
	pts := [][2]float64{{0, 0}, {0.1, 0}, {100, 0}, {100.1, 0}}
	eng, _ := New(0.3, pointDist(pts))
	up1, err := eng.AddItems(4)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumDomains() != 2 || len(up1.NewDomains) != 2 {
		t.Fatalf("initial: %d domains", eng.NumDomains())
	}
	domA := eng.Domain(0)

	// A new task right on top of blob A must join A's domain, creating
	// nothing new.
	pts2 := append(pts, [2]float64{0.05, 0.01})
	eng2, _ := New(0.3, pointDist(pts2))
	if _, err := eng2.AddItems(4); err != nil {
		t.Fatal(err)
	}
	domA = eng2.Domain(0)
	up2, err := eng2.AddItems(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Domain(4); got != domA {
		t.Errorf("new item joined domain %d, want %d", got, domA)
	}
	if len(up2.NewDomains) != 0 || len(up2.Merges) != 0 {
		t.Errorf("unexpected domain churn: %+v", up2)
	}
}

func TestDynamicAddCreatesNewDomain(t *testing.T) {
	pts := [][2]float64{{0, 0}, {0.1, 0}, {100, 0}, {100.1, 0}, {50, 80}, {50.1, 80}}
	eng, _ := New(0.2, pointDist(pts))
	if _, err := eng.AddItems(4); err != nil {
		t.Fatal(err)
	}
	up, err := eng.AddItems(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.NewDomains) != 1 {
		t.Fatalf("NewDomains = %v, want exactly one", up.NewDomains)
	}
	if eng.Domain(4) != up.NewDomains[0] || eng.Domain(5) != up.NewDomains[0] {
		t.Error("new blob not assigned the new domain")
	}
}

func TestDynamicMergeEmitsEvent(t *testing.T) {
	// Two blobs at moderate separation become mergeable once bridging
	// points arrive between them AND d* grows (new far-away outlier).
	pts := [][2]float64{
		{0, 0}, {1, 0}, // blob A
		{10, 0}, {11, 0}, // blob B
	}
	eng, _ := New(0.5, pointDist(pts))
	if _, err := eng.AddItems(4); err != nil {
		t.Fatal(err)
	}
	if eng.NumDomains() != 2 {
		t.Fatalf("setup: %d domains, want 2", eng.NumDomains())
	}
	domA, domB := eng.Domain(0), eng.Domain(2)

	// Bridge the gap and stretch d* with one far outlier: threshold
	// γ·d* grows past the A—B distance, so A and B merge.
	pts2 := append(pts, [2]float64{5, 0}, [2]float64{5.5, 0}, [2]float64{200, 0})
	eng2, _ := New(0.5, pointDist(pts2))
	if _, err := eng2.AddItems(4); err != nil {
		t.Fatal(err)
	}
	domA, domB = eng2.Domain(0), eng2.Domain(2)
	up, err := eng2.AddItems(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Merges) == 0 {
		t.Fatal("expected a domain merge event")
	}
	// The surviving domain must be one of the two originals, and items of
	// both blobs must now share it.
	if eng2.Domain(0) != eng2.Domain(2) {
		t.Error("blobs not merged")
	}
	survivor := eng2.Domain(0)
	if survivor != domA && survivor != domB {
		t.Errorf("survivor %d is neither original (%d, %d)", survivor, domA, domB)
	}
	for _, m := range up.Merges {
		if m.Into == m.From {
			t.Error("self-merge event")
		}
	}
}

func TestDomainStability(t *testing.T) {
	// Domains that do not participate in merges keep their IDs across
	// dynamic additions.
	pts := [][2]float64{{0, 0}, {0.2, 0}, {50, 0}, {50.2, 0}}
	eng, _ := New(0.3, pointDist(pts))
	if _, err := eng.AddItems(4); err != nil {
		t.Fatal(err)
	}
	before := []core.DomainID{eng.Domain(0), eng.Domain(2)}

	// Add items near blob A only.
	pts2 := append(pts, [2]float64{0.1, 0.1}, [2]float64{0.15, -0.1})
	eng2, _ := New(0.3, pointDist(pts2))
	if _, err := eng2.AddItems(4); err != nil {
		t.Fatal(err)
	}
	before = []core.DomainID{eng2.Domain(0), eng2.Domain(2)}
	if _, err := eng2.AddItems(2); err != nil {
		t.Fatal(err)
	}
	if eng2.Domain(0) != before[0] || eng2.Domain(2) != before[1] {
		t.Error("unrelated domains changed IDs")
	}
}

func TestDomainOutOfRange(t *testing.T) {
	eng, _ := New(0.5, func(a, b int) float64 { return 1 })
	if eng.Domain(0) != core.DomainNone || eng.Domain(-1) != core.DomainNone {
		t.Error("out-of-range Domain should be DomainNone")
	}
}

func TestMembersMatchesAssignments(t *testing.T) {
	rng := stats.NewRNG(3)
	pts := make([][2]float64, 25)
	for i := range pts {
		pts[i] = [2]float64{rng.Uniform(0, 10), rng.Uniform(0, 10)}
	}
	eng, _ := New(0.4, pointDist(pts))
	up, err := eng.AddItems(25)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for dom, members := range eng.Members() {
		total += len(members)
		for _, it := range members {
			if up.Assigned[it] != dom || eng.Domain(it) != dom {
				t.Fatalf("item %d: inconsistent domain", it)
			}
		}
	}
	if total != 25 {
		t.Errorf("Members covers %d items, want 25", total)
	}
}

func TestZeroItemAdd(t *testing.T) {
	eng, _ := New(0.5, func(a, b int) float64 { return 1 })
	up, err := eng.AddItems(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Assigned) != 0 || eng.NumItems() != 0 {
		t.Error("zero add should be a no-op")
	}
}

func TestSilhouette(t *testing.T) {
	// Two tight, far-apart blobs: silhouette near 1.
	var pts [][2]float64
	rng := stats.NewRNG(11)
	for i := 0; i < 8; i++ {
		pts = append(pts, [2]float64{rng.Uniform(0, 0.5), rng.Uniform(0, 0.5)})
	}
	for i := 0; i < 8; i++ {
		pts = append(pts, [2]float64{50 + rng.Uniform(0, 0.5), rng.Uniform(0, 0.5)})
	}
	eng, _ := New(0.5, pointDist(pts))
	if _, err := eng.AddItems(16); err != nil {
		t.Fatal(err)
	}
	if eng.NumDomains() != 2 {
		t.Fatalf("%d domains", eng.NumDomains())
	}
	if s := eng.Silhouette(); s < 0.9 {
		t.Errorf("silhouette %.3f for well-separated blobs, want >= 0.9", s)
	}

	// One cluster or too few items: 0 by convention.
	single, _ := New(1, pointDist(pts[:4]))
	if _, err := single.AddItems(4); err != nil {
		t.Fatal(err)
	}
	if single.NumDomains() == 1 && single.Silhouette() != 0 {
		t.Error("single-cluster silhouette should be 0")
	}
	empty, _ := New(0.5, pointDist(pts))
	if empty.Silhouette() != 0 {
		t.Error("empty engine silhouette should be 0")
	}
}

// Domain returns the domain of item i, or DomainNone for out-of-range i.
func (e *Engine) Domain(i int) core.DomainID {
	if i < 0 || i >= len(e.itemCluster) {
		return core.DomainNone
	}
	return e.clusters[e.itemCluster[i]].domain
}
