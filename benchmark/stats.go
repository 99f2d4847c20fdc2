package main

import (
	"math"
	"sort"
)

// sample is one timed request: when it was due (seconds since the start
// of its stage) and how long it took from that due time, in milliseconds.
// A failed request carries math.Inf(1) so it sorts past every percentile
// instead of being dropped from it.
type sample struct {
	due float64
	ms  float64
}

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics. vs is sorted in place. Empty input yields NaN.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	if frac <= 0 {
		return vs[lo] // also keeps a +Inf neighbour from turning 0*Inf into NaN
	}
	return vs[lo]*(1-frac) + vs[hi]*frac
}

func median(vs []float64) float64 {
	return quantile(append([]float64(nil), vs...), 0.5)
}

// midmean is the mean of the middle half of vs: the lowest and the highest
// quarter (rounded down) are dropped. On steps of one size it ignores the
// odd slow day like a median does; on steps that grow day by day, where a
// median reads only the one or two middle days, it averages half of them.
func midmean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// Windowed p99: the stage is cut into windows of at least p99WindowSec
// seconds that each hold at least p99WindowMin samples, so every window
// p99 has 16 or more samples beyond it; the metric is the median of the
// window p99s. One slow second then moves one window, not the result.
const (
	p99WindowSec = 1.0
	p99WindowMin = 1700
)

// windowedP99 returns the median over windows of each window's p99, and
// the number of windows. Samples need not be sorted. A stage too short
// for one full window is taken as a single window.
func windowedP99(ss []sample) (float64, int) {
	if len(ss) == 0 {
		return math.NaN(), 0
	}
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].due < sorted[j].due })
	var windows [][]float64
	var cur []float64
	start := sorted[0].due
	for _, s := range sorted {
		if len(cur) >= p99WindowMin && s.due-start >= p99WindowSec {
			windows = append(windows, cur)
			cur, start = nil, s.due
		}
		cur = append(cur, s.ms)
	}
	// A tail with too few samples joins the last full window rather than
	// forming a window whose p99 would rest on them.
	if len(windows) > 0 && len(cur) < p99WindowMin {
		windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	} else {
		windows = append(windows, cur)
	}
	p99s := make([]float64, len(windows))
	for i, w := range windows {
		p99s[i] = quantile(w, 0.99)
	}
	return median(p99s), len(windows)
}

// spread is the interquartile distance of vs as a share of its median, the
// steadiness figure the noise calibration reports. Quartiles follow
// Python's statistics.quantiles(vs, n=4) (exclusive method).
func spread(vs []float64) (q1, med, q3, rel float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), median(vs), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	q1, med, q3 = at(1), at(2), at(3)
	return q1, med, q3, (q3 - q1) / math.Abs(med)
}
