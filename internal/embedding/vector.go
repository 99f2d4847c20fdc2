// Package embedding provides the word-embedding substrate of ETA²'s semantic
// analysis: dense vectors, a from-scratch skip-gram-with-negative-sampling
// (SGNS) trainer, a deterministic hash-projection fallback embedder, and a
// synthetic multi-domain corpus generator standing in for the Wikipedia dump
// the paper trained on.
package embedding

import (
	"errors"
	"math"
)

// Vector is a dense embedding vector.
type Vector []float64

// ErrDimMismatch is returned when combining vectors of unequal length.
var ErrDimMismatch = errors.New("embedding: vector dimensions differ")

// AddInPlace accumulates w into v; both must have equal length.
func (v Vector) AddInPlace(w Vector) error {
	if len(v) != len(w) {
		return ErrDimMismatch
	}
	for i := range v {
		v[i] += w[i]
	}
	return nil
}

// Dot returns the inner product ⟨v, w⟩, or 0 for mismatched dimensions.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		return 0
	}
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v Vector) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// Normalize scales v in place to unit norm. Zero vectors are left unchanged.
func (v Vector) Normalize() {
	n := v.Norm()
	if n <= 0 { // norms are non-negative
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// SquaredDistance returns ‖v − w‖₂². Mismatched dimensions yield +Inf so a
// buggy caller can never mistake them for "close".
func (v Vector) SquaredDistance(w Vector) float64 {
	if len(v) != len(w) {
		return math.Inf(1)
	}
	s := 0.0
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}
