package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// quickOpts keeps experiment tests fast while still exercising the full
// code path.
var quickOpts = Options{Runs: 2, Seed: 1, Days: 5}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must have a registered runner,
	// plus the four ablations.
	want := []string{
		"fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig11", "fig12", "table2",
		"ablation-secondpass", "ablation-expertise", "ablation-pairword", "ablation-decay",
	}
	for _, id := range want {
		r, ok := Lookup(id)
		if !ok {
			t.Errorf("experiment %q missing from registry", id)
			continue
		}
		if r.Title == "" || r.Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("unknown id resolved")
	}
}

func TestSharedEmbedderCached(t *testing.T) {
	a, err := SharedEmbedder()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedEmbedder()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("shared embedder not cached")
	}
}

func TestMakeDataset(t *testing.T) {
	for _, name := range DatasetNames {
		ds, err := makeDataset(name, 1, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := makeDataset("bogus", 1, 10); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 3 {
		t.Fatalf("datasets = %v", res.Datasets)
	}
	// The homogeneous control must hug the standard normal closely; the
	// heterogeneous stand-ins are symmetric but leptokurtic mixtures and
	// may deviate more (still bounded).
	if dev := res.MaxDeviation(0); dev > 0.08 {
		t.Errorf("control: max deviation from normal %.3f", dev)
	}
	for d := 1; d < len(res.Datasets); d++ {
		if dev := res.MaxDeviation(d); dev > 0.5 {
			t.Errorf("%s: max deviation from normal %.3f", res.Datasets[d], dev)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "N(0,1)") {
		t.Error("render missing the normal reference column")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 2 || len(res.PassRate) != 2 {
		t.Fatalf("variants = %v", res.Variants)
	}
	homog := res.PassRate[0]
	// Non-rejection must grow as alpha shrinks, reaching ≈90% at 0.05 for
	// the homogeneous control (the paper's regime).
	for i := 1; i < len(homog); i++ {
		if homog[i] < homog[i-1]-0.02 {
			t.Errorf("pass rate not increasing: %v", homog)
		}
	}
	if homog[len(homog)-1] < 0.85 {
		t.Errorf("homogeneous pass rate at α=0.05 is %.2f, want ≥0.85", homog[len(homog)-1])
	}
	// The heterogeneous variant must pass strictly less.
	if res.PassRate[1][3] >= homog[3] {
		t.Error("heterogeneous variant should fail normality more often")
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5("synthetic", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Error) != len(Fig5Methods) {
		t.Fatalf("%d series for %d methods", len(res.Error), len(Fig5Methods))
	}
	// ETA² (row 0) must end below every baseline's final day.
	etaFinal := res.Error[0][len(res.Error[0])-1]
	for i := 1; i < len(res.Error); i++ {
		if etaFinal >= res.Error[i][len(res.Error[i])-1] {
			t.Errorf("ETA2 final error %.3f not below %v (%.3f)", etaFinal, res.Methods[i], res.Error[i][len(res.Error[i])-1])
		}
	}
	// And ETA² improves from warm-up to final day.
	if etaFinal >= res.Error[0][0] {
		t.Errorf("ETA2 error did not drop: day0 %.3f → %.3f", res.Error[0][0], etaFinal)
	}
}

func TestFig8Flat(t *testing.T) {
	res, err := Fig8(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Error) != len(Fig8Fractions) {
		t.Fatal("missing points")
	}
	// The paper's claim: only a slight increase under bias. Allow 2x.
	if res.Error[len(res.Error)-1] > 2*res.Error[0] {
		t.Errorf("error doubled under bias: %v", res.Error)
	}
}

func TestFig11Decreasing(t *testing.T) {
	res, err := Fig11(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Error[0], res.Error[len(res.Error)-1]
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Fatal("NaN expertise error")
	}
	if last >= first {
		t.Errorf("expertise error did not decrease with capacity: %v", res.Error)
	}
}

func TestFig12CDFValid(t *testing.T) {
	res, err := Fig12(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for d, series := range res.CDF {
		prev := 0.0
		for i, v := range series {
			if v < prev-1e-12 || v < 0 || v > 1 {
				t.Fatalf("%s: CDF not monotone in [0,1]: %v", res.Datasets[d], series)
			}
			prev = v
			_ = i
		}
		if series[len(series)-1] < 0.9 {
			t.Errorf("%s: only %.2f of runs converge within 60 iterations", res.Datasets[d], series[len(series)-1])
		}
	}
}

func TestTable2Buckets(t *testing.T) {
	res, err := Table2("synthetic", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no buckets")
	}
	total := 0.0
	for _, row := range res.Rows {
		total += row.TaskShare
		if row.AvgExpertise <= 0 {
			t.Errorf("bucket [%d,%d]: avg expertise %g", row.Lo, row.Hi, row.AvgExpertise)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("bucket shares sum to %g", total)
	}
	// One binary, one answer: the averages must not depend on the order a
	// map hands out the tasks in.
	first, _ := json.Marshal(res)
	for i := 0; i < 3; i++ {
		again, err := Table2("synthetic", quickOpts)
		if err != nil {
			t.Fatal(err)
		}
		if next, _ := json.Marshal(again); string(next) != string(first) {
			t.Fatalf("run %d marshals to %s, the first to %s", i+2, next, first)
		}
	}
}

func TestAblationSecondPassHelps(t *testing.T) {
	res, err := AblationSecondPass(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] <= res.Values[1] {
		t.Errorf("second pass %.4f not above plain greedy %.4f", res.Values[0], res.Values[1])
	}
}

func TestAblationExpertiseAwareHelps(t *testing.T) {
	res, err := AblationExpertiseAware(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] >= res.Values[1] {
		t.Errorf("expertise-aware %.4f not below unaware %.4f", res.Values[0], res.Values[1])
	}
}

func TestAblationPairWordHelps(t *testing.T) {
	res, err := AblationPairWord(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] <= res.Values[1] {
		t.Errorf("pair-word F1 %.4f not above bag-of-words %.4f", res.Values[0], res.Values[1])
	}
	if res.Values[0] < 0.9 {
		t.Errorf("pair-word clustering F1 %.4f below 0.9", res.Values[0])
	}
}

func TestAblationDecayPrefersForgetting(t *testing.T) {
	res, err := AblationDecay(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Under drift, never-forgetting (α=1, last entry) must be worst or
	// at least not better than the best decaying setting.
	best := math.Inf(1)
	for _, v := range res.Values[:len(res.Values)-1] {
		if v < best {
			best = v
		}
	}
	if res.Values[len(res.Values)-1] < best {
		t.Errorf("α=1 (%.4f) beat decaying settings (%v) under drift", res.Values[len(res.Values)-1], res.Values)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	// Smoke-run the remaining registry entries at minimal effort and make
	// sure every report is non-empty and mentions its figure.
	for _, id := range []string{"fig7", "table2"} {
		r, _ := Lookup(id)
		out, err := r.Run(Options{Runs: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short report %q", id, out)
		}
	}
}

func TestAdversarialRobustness(t *testing.T) {
	res, err := Adversarial(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Fractions)
	if len(res.ETA2Error) != n || len(res.BaselineError) != n {
		t.Fatal("missing series")
	}
	// ETA² must beat the mean baseline at every adversary share, and its
	// degradation from 0% to 30% colluders must stay moderate (<2.5x)
	// while the baseline's absolute error is driven far above it.
	for i := range res.Fractions {
		if res.ETA2Error[i] >= res.BaselineError[i] {
			t.Errorf("at %.0f%% adversaries: ETA2 %.3f not below baseline %.3f",
				100*res.Fractions[i], res.ETA2Error[i], res.BaselineError[i])
		}
	}
	if res.ETA2Error[n-1] > 2.5*res.ETA2Error[0] {
		t.Errorf("ETA2 degraded %.1fx under collusion: %v",
			res.ETA2Error[n-1]/res.ETA2Error[0], res.ETA2Error)
	}
}

func TestFig4SurveySurface(t *testing.T) {
	res, err := Fig4("survey", Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig4Alphas)*len(Fig4Gammas) {
		t.Fatalf("grid has %d points", len(res.Points))
	}
	if res.Best.Error <= 0 {
		t.Errorf("best error %g", res.Best.Error)
	}
	// The best point must actually be the grid minimum.
	for _, p := range res.Points {
		if p.Error < res.Best.Error {
			t.Errorf("best %.4f is not the minimum (%.4f at α=%.1f γ=%.1f)", res.Best.Error, p.Error, p.Alpha, p.Gamma)
		}
	}
	if out := res.Render(); !strings.Contains(out, "best:") {
		t.Error("render missing the best-point line")
	}
}

func TestFig4SyntheticSkipsGamma(t *testing.T) {
	res, err := Fig4("synthetic", Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-known domains: a single γ=0 column.
	if len(res.Points) != len(Fig4Alphas) {
		t.Fatalf("synthetic grid has %d points, want %d", len(res.Points), len(Fig4Alphas))
	}
	for _, p := range res.Points {
		if p.Gamma != 0 {
			t.Errorf("synthetic point with γ=%g", p.Gamma)
		}
	}
}

func TestFig6SyntheticShape(t *testing.T) {
	res, err := Fig6("synthetic", Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// ETA² error must decrease from τ=4 to τ=20 and beat the mean
	// baseline at the largest capacity.
	eta := res.Error[0]
	if eta[len(eta)-1] >= eta[0] {
		t.Errorf("ETA2 error not decreasing in tau: %v", eta)
	}
	base := res.Error[len(res.Error)-1]
	if eta[len(eta)-1] >= base[len(base)-1] {
		t.Errorf("ETA2 %.3f not below baseline %.3f at max tau", eta[len(eta)-1], base[len(base)-1])
	}
	if out := res.Render(); !strings.Contains(out, "Figure 6") {
		t.Error("render missing title")
	}
}

func TestFig9And10SyntheticShape(t *testing.T) {
	res, err := Fig9And10("synthetic", Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1+len(Fig9Budgets) {
		t.Fatalf("series = %v", res.Series)
	}
	lastTau := len(res.Taus) - 1
	// ETA² (row 0) spends more than every min-cost variant at the largest
	// capacity, and min-cost stays within the quality bound.
	for i := 1; i < len(res.Series); i++ {
		if res.Cost[i][lastTau] >= res.Cost[0][lastTau] {
			t.Errorf("%s cost %.0f not below ETA2 %.0f at max tau", res.Series[i], res.Cost[i][lastTau], res.Cost[0][lastTau])
		}
		if res.Error[i][lastTau] >= res.EpsBar {
			t.Errorf("%s error %.3f exceeds the quality bound %.2f", res.Series[i], res.Error[i][lastTau], res.EpsBar)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Figure 10") {
		t.Error("render missing the cost table")
	}
}

func TestDropoutResilience(t *testing.T) {
	res, err := Dropout(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Rates)
	if len(res.ETA2Error) != n || len(res.MCError) != n || len(res.MCCost) != n {
		t.Fatal("missing series")
	}
	// Min-cost recruits replacements under dropout: its cost must rise.
	if res.MCCost[n-1] <= res.MCCost[0] {
		t.Errorf("min-cost did not recruit replacements: cost %v", res.MCCost)
	}
	// And its feedback loop keeps its error degradation smaller than plain
	// max-quality's at 50% dropout.
	mcDegrade := res.MCError[n-1] / res.MCError[0]
	mqDegrade := res.ETA2Error[n-1] / res.ETA2Error[0]
	if mcDegrade >= mqDegrade {
		t.Errorf("min-cost degraded %.2fx vs max-quality %.2fx; the feedback loop should compensate", mcDegrade, mqDegrade)
	}
}

func TestLineChart(t *testing.T) {
	c := newLineChart("demo", "x", []float64{0, 1, 2, 3})
	c.add("up", []float64{0, 1, 2, 3})
	c.add("down", []float64{3, 2, 1, 0})
	out := c.render(20, 6)
	if !strings.Contains(out, "a = up") || !strings.Contains(out, "b = down") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "3.000") || !strings.Contains(out, "0.000") {
		t.Errorf("axis labels missing:\n%s", out)
	}
	// Degenerate charts must not panic.
	flat := newLineChart("flat", "x", []float64{1})
	flat.add("one", []float64{5})
	if out := flat.render(1, 1); out == "" {
		t.Error("empty render")
	}
	empty := newLineChart("none", "x", []float64{1, 2})
	empty.add("nan", []float64{math.NaN(), math.NaN()})
	if !strings.Contains(empty.render(10, 5), "no data") {
		t.Error("NaN-only series should render as no data")
	}
}

func TestRunTypedCoversRegistry(t *testing.T) {
	// Every registry ID must dispatch in RunTyped, and the cheap ones must
	// produce JSON-serializable structured results.
	for _, r := range Registry() {
		if _, ok := typedDispatches(r.ID); !ok {
			t.Errorf("registry id %q missing from RunTyped", r.ID)
		}
	}
	if _, err := RunTyped("bogus", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
	res, err := RunTyped("table1", Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("table1 result not serializable: %v", err)
	}
	res, err = RunTyped("ablation-secondpass", Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.(AblationResult); !ok {
		t.Errorf("unexpected result type %T", res)
	}
}

// typedDispatches reports whether RunTyped knows the ID, without running
// the experiment (it probes the error of a zero-cost dispatch check).
func typedDispatches(id string) (any, bool) {
	switch id {
	case "fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig12", "table2", "ablation-secondpass",
		"ablation-expertise", "ablation-pairword", "ablation-decay",
		"ext-adversarial", "ext-dropout":
		return nil, true
	}
	return nil, false
}
