package stats

import "errors"

// Histogram is a fixed-width binned summary of a sample.
type Histogram struct {
	// Lo and Hi delimit the histogram range; samples outside are clamped
	// into the first/last bin.
	Lo, Hi float64
	// Counts holds the per-bin counts.
	Counts []int
	// Total is the number of samples accumulated.
	Total int
}

// ErrBadHistogram is returned for invalid histogram construction parameters.
var ErrBadHistogram = errors.New("stats: histogram needs hi > lo and bins >= 1")

// NewHistogram creates a histogram with the given range and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if hi <= lo || bins < 1 {
		return nil, ErrBadHistogram
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add accumulates one sample. Out-of-range samples are clamped into the
// boundary bins so the histogram always accounts for every sample.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.Total++
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the normalized density of each bin (integrates to 1),
// comparable against a probability density function. An empty histogram
// yields all zeros.
func (h *Histogram) Density() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	norm := 1.0 / (float64(h.Total) * h.BinWidth())
	for i, c := range h.Counts {
		out[i] = float64(c) * norm
	}
	return out
}
