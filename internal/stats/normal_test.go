package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPhiKnownValues(t *testing.T) {
	tests := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.96, 0.9750021048517795},
		{-1.96, 0.024997895148220428},
		{3, 0.9986501019683699},
	}
	for _, tt := range tests {
		if got := Phi(tt.z); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Phi(%g) = %.15f, want %.15f", tt.z, got, tt.want)
		}
	}
}

func TestAccurateInterval(t *testing.T) {
	// Φ(eps·u) − Φ(−eps·u) for eps=0.1, u=10 → Φ(1)−Φ(−1) ≈ 0.6827.
	got := AccurateInterval(0.1, 10)
	want := 0.6826894921370859
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AccurateInterval(0.1, 10) = %g, want %g", got, want)
	}
	if AccurateInterval(0.1, 0) != 0 {
		t.Error("zero expertise should give zero accuracy probability")
	}
	if AccurateInterval(0, 1) != 0 {
		t.Error("zero epsilon should give zero accuracy probability")
	}
}

func TestAccurateIntervalMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		u1 := math.Abs(a)
		u2 := u1 + math.Abs(b)
		return AccurateInterval(0.1, u1) <= AccurateInterval(0.1, u2)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999, 1 - 1e-9} {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatalf("NormalQuantile(%g): %v", p, err)
		}
		if back := Phi(z); math.Abs(back-p) > 1e-10 {
			t.Errorf("Phi(NormalQuantile(%g)) = %g, drift %g", p, back, math.Abs(back-p))
		}
	}
}

func TestNormalQuantileInvalid(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NormalQuantile(p); err == nil {
			t.Errorf("NormalQuantile(%g) should fail", p)
		}
	}
}

func TestZAlphaOver2(t *testing.T) {
	if got := ZAlphaOver2(0.05); math.Abs(got-1.959963984540054) > 1e-9 {
		t.Errorf("ZAlphaOver2(0.05) = %g, want 1.96", got)
	}
	if got := ZAlphaOver2(0.1); math.Abs(got-1.6448536269514722) > 1e-9 {
		t.Errorf("ZAlphaOver2(0.1) = %g, want 1.645", got)
	}
	if !math.IsInf(ZAlphaOver2(0), 1) {
		t.Error("ZAlphaOver2(0) should be +Inf")
	}
	if ZAlphaOver2(1) != 0 {
		t.Error("ZAlphaOver2(1) should be 0")
	}
}

func TestPhiProperties(t *testing.T) {
	// Φ is a CDF: bounded, monotone, symmetric about 0.
	bounded := func(z float64) bool {
		p := Phi(z)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Error("Phi not bounded:", err)
	}
	symmetric := func(z float64) bool {
		if math.Abs(z) > 30 {
			return true // both sides saturate
		}
		return math.Abs(Phi(z)+Phi(-z)-1) < 1e-12
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error("Phi not symmetric:", err)
	}
	monotone := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		return Phi(lo) <= Phi(hi)+1e-15
	}
	if err := quick.Check(monotone, nil); err != nil {
		t.Error("Phi not monotone:", err)
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integration of the pdf should match Φ differences.
	const step = 1e-3
	sum := 0.0
	for x := -6.0; x < 2.0; x += step {
		sum += step * (StdNormalPDF(x) + StdNormalPDF(x+step)) / 2
	}
	want := Phi(2) - Phi(-6)
	if math.Abs(sum-want) > 1e-6 {
		t.Errorf("∫pdf = %g, Φ(2)−Φ(−6) = %g", sum, want)
	}
}
