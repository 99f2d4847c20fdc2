// Package stats provides the statistical primitives ETA² is built on:
// normal-distribution functions, chi-square goodness-of-fit testing,
// descriptive statistics, histograms and empirical CDFs.
//
// Everything in this package is deterministic and allocation-conscious; it
// deliberately avoids global state so that concurrent simulations can share
// it safely.
package stats

import (
	"errors"
	"math"
)

// ErrInvalidQuantile is returned by NormalQuantile for p outside (0, 1).
var ErrInvalidQuantile = errors.New("stats: quantile probability must be in (0, 1)")

// StdNormalPDF returns the standard normal density at z.
func StdNormalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// Phi returns the standard normal cumulative distribution function Φ(z).
func Phi(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// AccurateInterval returns Φ(eps·u) − Φ(−eps·u): the probability that a
// N(0, 1/u²) observation has absolute normalized error below eps. This is
// the p_ij of Eq. 11 in the paper. For u <= 0 the variance is unbounded and
// the probability is 0.
func AccurateInterval(eps, u float64) float64 {
	if u <= 0 || eps <= 0 {
		return 0
	}
	// Φ(a) − Φ(−a) = erf(a/√2).
	return math.Erf(eps * u / math.Sqrt2)
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// (the value z with Φ(z) = p). It uses the Acklam rational approximation
// refined by one Halley step, giving ~1e-15 relative accuracy.
func NormalQuantile(p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, ErrInvalidQuantile
	}
	z := acklam(p)
	// One Halley refinement step.
	e := Phi(z) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(z*z/2)
	z -= u / (1 + z*u/2)
	return z, nil
}

// ZAlphaOver2 returns the two-sided critical value z_{α/2} of the standard
// normal distribution, i.e. the value z with P(|Z| > z) = alpha.
// It returns +Inf for alpha <= 0 and 0 for alpha >= 1.
func ZAlphaOver2(alpha float64) float64 {
	if alpha <= 0 {
		return math.Inf(1)
	}
	if alpha >= 1 {
		return 0
	}
	z, err := NormalQuantile(1 - alpha/2)
	if err != nil {
		// Unreachable: 1-alpha/2 is in (0.5, 1) for alpha in (0, 1).
		return 0
	}
	return z
}

// acklam implements Peter Acklam's inverse-normal-CDF approximation.
func acklam(p float64) float64 {
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}
