package embedding

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestVectorAddInPlace(t *testing.T) {
	v := Vector{1, 1}
	if err := v.AddInPlace(Vector{2, 3}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 4 {
		t.Errorf("AddInPlace = %v", v)
	}
	if err := v.AddInPlace(Vector{1}); !errors.Is(err, ErrDimMismatch) {
		t.Error("dim mismatch not reported")
	}
}

func TestVectorScaleDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Dot(Vector{1, 1}); got != 7 {
		t.Errorf("Dot = %g", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %g", got)
	}
	if got := v.Dot(Vector{1}); got != 0 {
		t.Errorf("mismatched Dot = %g, want 0", got)
	}
}

func TestVectorNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("normalized norm = %g", v.Norm())
	}
	z := Vector{0, 0}
	z.Normalize() // must not panic or NaN
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero vector changed: %v", z)
	}
}

func TestSquaredDistance(t *testing.T) {
	if got := (Vector{0, 0}).SquaredDistance(Vector{3, 4}); got != 25 {
		t.Errorf("SquaredDistance = %g, want 25", got)
	}
	if got := (Vector{1}).SquaredDistance(Vector{1, 2}); !math.IsInf(got, 1) {
		t.Errorf("mismatched dims = %g, want +Inf", got)
	}
}

func TestCosine(t *testing.T) {
	if got := (Vector{1, 0}).Cosine(Vector{0, 1}); got != 0 {
		t.Errorf("orthogonal cosine = %g", got)
	}
	if got := (Vector{1, 1}).Cosine(Vector{2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("parallel cosine = %g", got)
	}
	if got := (Vector{0, 0}).Cosine(Vector{1, 1}); got != 0 {
		t.Errorf("zero-vector cosine = %g", got)
	}
}

func TestVectorProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	clean := func(raw []float64) Vector {
		v := make(Vector, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				v = append(v, x)
			}
		}
		return v
	}
	symmetric := func(a, b []float64) bool {
		va, vb := clean(a), clean(b)
		n := min(len(va), len(vb))
		va, vb = va[:n], vb[:n]
		return math.Abs(va.SquaredDistance(vb)-vb.SquaredDistance(va)) < 1e-6
	}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Error("distance not symmetric:", err)
	}
	selfZero := func(a []float64) bool {
		va := clean(a)
		return va.SquaredDistance(va) == 0
	}
	if err := quick.Check(selfZero, cfg); err != nil {
		t.Error("self distance nonzero:", err)
	}
	cosineBounded := func(a, b []float64) bool {
		va, vb := clean(a), clean(b)
		n := min(len(va), len(vb))
		c := va[:n].Cosine(vb[:n])
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(cosineBounded, cfg); err != nil {
		t.Error("cosine out of bounds:", err)
	}
}

// Cosine returns the cosine similarity of v and w in [-1, 1], or 0 if either
// is a zero vector or the dimensions differ.
func (v Vector) Cosine(w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv <= 0 || nw <= 0 || len(v) != len(w) { // norms are non-negative
		return 0
	}
	return v.Dot(w) / (nv * nw)
}
