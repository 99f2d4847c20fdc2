package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("hi == lo should fail")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins should fail")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.5, 2.5, 4.5, 6.5, 8.5} {
		h.Add(x)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Errorf("bin %d count = %d, want 1", i, c)
		}
	}
	if h.Total != 5 {
		t.Errorf("total = %d, want 5", h.Total)
	}
}

func TestHistogramClamping(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	h.Add(-100)
	h.Add(100)
	if h.Counts[0] != 1 || h.Counts[4] != 1 {
		t.Errorf("out-of-range samples not clamped: %v", h.Counts)
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	f := func(raw []float64) bool {
		h, err := NewHistogram(-10, 10, 8)
		if err != nil {
			return false
		}
		clean := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		for _, v := range clean {
			h.Add(v)
		}
		sum := 0.0
		for _, d := range h.Density() {
			sum += d * h.BinWidth()
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramEmptyDensity(t *testing.T) {
	h, _ := NewHistogram(0, 1, 4)
	for _, d := range h.Density() {
		if d != 0 {
			t.Error("empty histogram density should be zero")
		}
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, _ := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("center(0) = %g, want 1", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Errorf("center(4) = %g, want 9", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 4, 2)
	for _, x := range []float64{0.5, 0.7, 3} {
		h.Add(x)
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Errorf("render has no bars:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("render has %d lines, want 2", lines)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Float64() == NewRNG(2).Float64() {
		t.Error("different seeds should differ (extremely unlikely collision)")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Float64() == c2.Float64() {
		t.Error("split children should differ")
	}
}

func TestRNGUniformRange(t *testing.T) {
	rng := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := rng.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %g out of range", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(5)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Normal(3, 2)
	}
	if m := Mean(xs); math.Abs(m-3) > 0.1 {
		t.Errorf("sample mean %g, want ≈3", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.1 {
		t.Errorf("sample std %g, want ≈2", s)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	rng := NewRNG(8)
	p := rng.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's state, so splitting N children in
// a fixed order is reproducible.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Render draws a text bar chart of the histogram density, one row per bin,
// for human inspection in CLI output.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	dens := h.Density()
	maxD := 0.0
	for _, d := range dens {
		if d > maxD {
			maxD = d
		}
	}
	var b strings.Builder
	for i, d := range dens {
		bar := 0
		if maxD > 0 {
			bar = int(d / maxD * float64(width))
		}
		fmt.Fprintf(&b, "%8.3f | %-*s %.4f\n", h.BinCenter(i), width, strings.Repeat("#", bar), d)
	}
	return b.String()
}
