package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		if got := Mean(tt.in); got != tt.want {
			t.Errorf("%s: Mean = %g, want %g", tt.name, got, tt.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("single-element variance should be 0")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := Quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := Quantile([]float64{4, 1, 2, 3}, 0.5); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); got != 2.5 {
		t.Errorf("q25 = %g, want 2.5", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if got := Quantile(xs, -1); got != 0 {
		t.Errorf("clamped low quantile = %g, want 0", got)
	}
	if got := Quantile(xs, 2); got != 10 {
		t.Errorf("clamped high quantile = %g, want 10", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		lo, hi := math.Min(a, b), math.Max(a, b)
		return Quantile(raw, lo) <= Quantile(raw, hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxPlot(t *testing.T) {
	bp := NewBoxPlot([]float64{1, 2, 3, 4, 5})
	if bp.Min != 1 || bp.Max != 5 || bp.Median != 3 || bp.N != 5 {
		t.Errorf("unexpected boxplot: %+v", bp)
	}
	if bp.Q1 != 2 || bp.Q3 != 4 {
		t.Errorf("quartiles: q1=%g q3=%g, want 2/4", bp.Q1, bp.Q3)
	}
	zero := NewBoxPlot(nil)
	if zero.N != 0 {
		t.Errorf("empty boxplot: %+v", zero)
	}
}

func TestBoxPlotOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) {
				return true
			}
		}
		bp := NewBoxPlot(raw)
		return bp.Min <= bp.Q1 && bp.Q1 <= bp.Median && bp.Median <= bp.Q3 && bp.Q3 <= bp.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ats := []float64{0, 1, 2, 2.5, 3, 4}
	got := ECDF(xs, ats)
	want := []float64{0, 0.25, 0.75, 0.75, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ECDF at %g = %g, want %g", ats[i], got[i], want[i])
		}
	}
	if out := ECDF(nil, ats); out[0] != 0 || out[len(out)-1] != 0 {
		t.Error("empty-sample ECDF should be all zeros")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, ats []float64) bool {
		for _, v := range append(append([]float64{}, raw...), ats...) {
			if math.IsNaN(v) {
				return true
			}
		}
		sort.Float64s(ats)
		out := ECDF(raw, ats)
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
