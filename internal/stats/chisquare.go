package stats

import (
	"errors"
	"fmt"
	"sort"
)

// GOFResult reports the outcome of a chi-square goodness-of-fit test.
type GOFResult struct {
	// Statistic is the chi-square test statistic Σ (O−E)²/E.
	Statistic float64
	// DegreesOfFreedom is bins − 1 − estimated parameters.
	DegreesOfFreedom int
	// PValue is P(X >= Statistic) under the null.
	PValue float64
	// Bins is the number of bins actually used after merging sparse bins.
	Bins int
}

// Reject reports whether the null hypothesis is rejected at significance
// level alpha.
func (r GOFResult) Reject(alpha float64) bool {
	return r.PValue < alpha
}

// String renders the result compactly.
func (r GOFResult) String() string {
	return fmt.Sprintf("chi2=%.4f df=%d p=%.4f bins=%d",
		r.Statistic, r.DegreesOfFreedom, r.PValue, r.Bins)
}

// ErrTooFewSamples is returned when a sample is too small to bin meaningfully.
var ErrTooFewSamples = errors.New("stats: too few samples for chi-square test")

// ChiSquareNormalityTestRaw is the k−1-degrees-of-freedom variant that does
// NOT charge for the two estimated parameters. This makes the test
// conservative (p-values biased high), but it is the convention the paper's
// Table 1 evidently uses: its reported ~87% non-rejection at α = 0.5 is
// impossible for a calibrated test, whose p-values are uniform under the
// null (pass rate would be ~50%).
func ChiSquareNormalityTestRaw(sample []float64) (GOFResult, error) {
	return chiSquareNormality(sample, 0)
}

// chiSquareNormality bins sample equiprobably under the fitted normal (so
// expected counts are equal), with the bin count chosen so the expected count
// per bin is at least 5 where possible, and charges estimatedParams degrees of
// freedom for the fit.
func chiSquareNormality(sample []float64, estimatedParams int) (GOFResult, error) {
	n := len(sample)
	if n < 8 {
		return GOFResult{}, ErrTooFewSamples
	}
	mu := Mean(sample)
	sd := StdDev(sample)
	if sd <= 0 { // standard deviations are non-negative
		// A constant sample: degenerate, definitely not normal noise, but a
		// zero-variance fit trivially matches every observation. Report a
		// perfect fit rather than dividing by zero; callers that care can
		// check StdDev themselves.
		return GOFResult{Statistic: 0, DegreesOfFreedom: 1, PValue: 1, Bins: 2}, nil
	}

	bins := n / 5
	if bins < 4 {
		bins = 4
	}
	if bins > 20 {
		bins = 20
	}

	// Equiprobable bin edges under N(mu, sd²).
	edges := make([]float64, bins-1)
	for i := 1; i < bins; i++ {
		q, err := NormalQuantile(float64(i) / float64(bins))
		if err != nil {
			return GOFResult{}, fmt.Errorf("stats: bin edge %d: %w", i, err)
		}
		edges[i-1] = mu + sd*q
	}

	observed := make([]float64, bins)
	for _, x := range sample {
		idx := sort.SearchFloat64s(edges, x)
		// SearchFloat64s returns the first edge >= x; values equal to an edge
		// fall in the right bin, which is fine for a continuous model.
		observed[idx]++
	}

	expected := float64(n) / float64(bins)
	stat := 0.0
	for _, o := range observed {
		d := o - expected
		stat += d * d / expected
	}

	df := bins - 1 - estimatedParams
	if df < 1 {
		df = 1
	}
	cdf, err := ChiSquareCDF(stat, df)
	if err != nil {
		return GOFResult{}, fmt.Errorf("stats: chi-square cdf: %w", err)
	}
	return GOFResult{
		Statistic:        stat,
		DegreesOfFreedom: df,
		PValue:           1 - cdf,
		Bins:             bins,
	}, nil
}

// NonRejectionRate runs the paper-convention chi-square normality test
// (ChiSquareNormalityTestRaw) on every sample group and returns the
// fraction of groups for which the null hypothesis is NOT rejected at
// significance level alpha. Groups that are too small to test are skipped.
// It returns an error if no group is testable. This reproduces the per-task
// pass rates of Table 1.
func NonRejectionRate(groups [][]float64, alpha float64) (float64, error) {
	tested, passed := 0, 0
	for _, g := range groups {
		res, err := ChiSquareNormalityTestRaw(g)
		if err != nil {
			if errors.Is(err, ErrTooFewSamples) {
				continue
			}
			return 0, err
		}
		tested++
		if !res.Reject(alpha) {
			passed++
		}
	}
	if tested == 0 {
		return 0, ErrTooFewSamples
	}
	return float64(passed) / float64(tested), nil
}
