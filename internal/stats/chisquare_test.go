package stats

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func normalSample(n int, mu, sigma float64, seed int64) []float64 {
	rng := NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Normal(mu, sigma)
	}
	return out
}

// ChiSquareNormalityTest tests the null hypothesis that sample is drawn from
// a normal distribution with unknown mean and variance (both estimated from
// the sample, costing two degrees of freedom): the calibrated test that
// ChiSquareNormalityTestRaw is held against.
func ChiSquareNormalityTest(sample []float64) (GOFResult, error) {
	return chiSquareNormality(sample, 2)
}

func TestChiSquareNormalityAcceptsNormal(t *testing.T) {
	rejected := 0
	const trials = 200
	for s := 0; s < trials; s++ {
		res, err := ChiSquareNormalityTest(normalSample(80, 10, 2, int64(s)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.05) {
			rejected++
		}
	}
	// A calibrated test rejects ~5% of truly normal samples; allow slack.
	if rate := float64(rejected) / trials; rate > 0.12 {
		t.Errorf("rejected %.0f%% of normal samples at alpha=0.05", 100*rate)
	}
}

func TestChiSquareNormalityRejectsUniform(t *testing.T) {
	rng := NewRNG(9)
	rejected := 0
	const trials = 100
	for s := 0; s < trials; s++ {
		sample := make([]float64, 100)
		for i := range sample {
			sample[i] = rng.Uniform(0, 1)
		}
		res, err := ChiSquareNormalityTest(sample)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.05) {
			rejected++
		}
	}
	// Uniform data should be rejected much more often than normal data.
	if rate := float64(rejected) / trials; rate < 0.3 {
		t.Errorf("only rejected %.0f%% of uniform samples", 100*rate)
	}
}

func TestChiSquareNormalityRejectsBimodal(t *testing.T) {
	rng := NewRNG(4)
	sample := make([]float64, 200)
	for i := range sample {
		if i%2 == 0 {
			sample[i] = rng.Normal(-5, 1)
		} else {
			sample[i] = rng.Normal(5, 1)
		}
	}
	res, err := ChiSquareNormalityTest(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.05) {
		t.Errorf("bimodal sample not rejected: %v", res)
	}
}

func TestChiSquareNormalityTooFew(t *testing.T) {
	_, err := ChiSquareNormalityTest([]float64{1, 2, 3})
	if !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("got %v, want ErrTooFewSamples", err)
	}
}

func TestChiSquareNormalityConstant(t *testing.T) {
	sample := make([]float64, 20)
	for i := range sample {
		sample[i] = 7
	}
	res, err := ChiSquareNormalityTest(sample)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.05) {
		t.Error("constant sample should degenerate to a non-rejection")
	}
}

func TestChiSquareRawIsMoreConservative(t *testing.T) {
	// The raw (k−1 df) variant must always produce p-values >= the
	// corrected variant on the same sample.
	for s := 0; s < 50; s++ {
		sample := normalSample(60, 0, 1, int64(s))
		raw, err := ChiSquareNormalityTestRaw(sample)
		if err != nil {
			t.Fatal(err)
		}
		corrected, err := ChiSquareNormalityTest(sample)
		if err != nil {
			t.Fatal(err)
		}
		if raw.PValue < corrected.PValue-1e-12 {
			t.Fatalf("raw p=%g < corrected p=%g", raw.PValue, corrected.PValue)
		}
	}
}

func TestNonRejectionRate(t *testing.T) {
	var groups [][]float64
	for s := 0; s < 40; s++ {
		groups = append(groups, normalSample(60, 5, 3, int64(s)))
	}
	groups = append(groups, []float64{1, 2}) // too small: skipped
	rate, err := NonRejectionRate(groups, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.85 {
		t.Errorf("non-rejection rate %.2f for normal groups, want >= 0.85", rate)
	}
}

func TestNonRejectionRateNoTestable(t *testing.T) {
	_, err := NonRejectionRate([][]float64{{1, 2}, {3}}, 0.05)
	if !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("got %v, want ErrTooFewSamples", err)
	}
}

func TestGOFResultString(t *testing.T) {
	s := GOFResult{Statistic: 1.5, DegreesOfFreedom: 3, PValue: 0.68, Bins: 6}.String()
	for _, want := range []string{"chi2=1.5", "df=3", "p=0.68", "bins=6"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestGOFDegreesOfFreedom(t *testing.T) {
	sample := normalSample(100, 0, 1, 1)
	res, err := ChiSquareNormalityTest(sample)
	if err != nil {
		t.Fatal(err)
	}
	// 100 samples → 20 bins → df = 20−1−2 = 17.
	if res.Bins != 20 || res.DegreesOfFreedom != 17 {
		t.Errorf("bins=%d df=%d, want 20/17", res.Bins, res.DegreesOfFreedom)
	}
	if math.IsNaN(res.PValue) {
		t.Error("NaN p-value")
	}
}
