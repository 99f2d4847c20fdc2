package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (denominator n), or 0 for
// fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice
// and clamps q into [0,1]. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxPlot is the five-number summary used for the paper's Figure 7 boxplots.
type BoxPlot struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	N      int
}

// NewBoxPlot computes the five-number summary of xs. The zero value is
// returned for an empty slice.
func NewBoxPlot(xs []float64) BoxPlot {
	if len(xs) == 0 {
		return BoxPlot{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return BoxPlot{
		Min:    sorted[0],
		Q1:     Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.5),
		Q3:     Quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
}

// ECDF returns the empirical CDF of xs evaluated at each point of ats.
// Used for the paper's Figure 12 convergence CDF.
func ECDF(xs []float64, ats []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(ats))
	if len(sorted) == 0 {
		return out
	}
	for i, a := range ats {
		// Number of samples <= a.
		k := sort.Search(len(sorted), func(j int) bool { return sorted[j] > a })
		out[i] = float64(k) / float64(len(sorted))
	}
	return out
}
