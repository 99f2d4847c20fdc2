package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// The benchmark runs from the repository root: it builds ./cmd/eta2server
// and reads BENCHMARK.json there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	code := m.Run()
	children.cleanup()
	os.Exit(code)
}

func TestWindowedP99(t *testing.T) {
	// Three seconds at 2000 samples/s: 1 ms everywhere, except that 4 % of
	// the middle second take 50 ms, which lifts the p99 of the whole stage.
	var ss []sample
	for i := 0; i < 6000; i++ {
		s := sample{due: float64(i) / 2000, ms: 1}
		if i >= 2000 && i < 4000 && i%25 == 0 {
			s.ms = 50
		}
		ss = append(ss, s)
	}
	got, windows := windowedP99(ss)
	if windows != 3 {
		t.Fatalf("windows = %d, want 3", windows)
	}
	if got != 1 {
		t.Errorf("windowed p99 = %g, want 1: one slow window must not move the median of three", got)
	}
	if whole := quantile(latencies(ss), 0.99); whole != 50 {
		t.Errorf("p99 of the whole stage = %g, want 50", whole)
	}

	// Too few samples for one window: everything is one window.
	if _, windows := windowedP99(ss[:500]); windows != 1 {
		t.Errorf("short stage: windows = %d, want 1", windows)
	}
	// A tail shorter than a window joins the last full window.
	if _, windows := windowedP99(ss[:4500]); windows != 2 {
		t.Errorf("tail of 500 samples: windows = %d, want 2", windows)
	}
	// A failed request sorts past the percentile instead of vanishing.
	bad := append([]sample(nil), ss[:2000]...)
	for i := 0; i < 30; i++ {
		bad[i*10].ms = math.Inf(1)
	}
	if got, _ := windowedP99(bad); !math.IsInf(got, 1) {
		t.Errorf("window with 1.5 %% failures: p99 = %g, want +Inf", got)
	}
}

func TestSpreadFollowsPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3, rel := spread([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	if want := 5.5 / 5.5; math.Abs(rel-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", rel, want)
	}
}

func TestMidmean(t *testing.T) {
	// Eleven days: the two cheapest and the two dearest are dropped, so the
	// slow day (100) does not count and the trend's middle seven do.
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 6 {
		t.Errorf("midmean = %g, want 6", got)
	}
	if got := midmean([]float64{3, 1, 2}); got != 2 {
		t.Errorf("midmean of three = %g, want their mean 2", got)
	}
}

// An open-loop request is timed from when it was due, so a stall charges
// every request queued behind it, and the generator's lateness is
// reported beside it.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = request{method: "GET", url: srv.URL}
	}
	c := newClient()
	res := c.runPaced(reqs, len(reqs), 1000, 1, nil) // one connection, one request due every millisecond
	if len(res.reads) != len(reqs) || c.failed.Load() != 0 {
		t.Fatalf("%d of %d requests answered, %d failed", len(res.reads), len(reqs), c.failed.Load())
	}
	for _, s := range res.reads {
		i := int(math.Round(s.due * 1000))
		// Request i was due i ms in and could not start before the stall
		// ended: its latency from the due time is at least the rest of it.
		if min := float64(stall/time.Millisecond) - float64(i); s.ms < min {
			t.Errorf("request %d: latency %.1f ms from its due time, want at least %.0f ms", i, s.ms, min)
		}
	}
	if late := quantile(res.lateMs, 1); late < float64(stall/time.Millisecond)-2 {
		t.Errorf("generator lateness max = %.1f ms, want about %v", late, stall)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs() {
		sp = sp.scaled(10).smoke()
		a, b, c := generate(sp, 7).digest(), generate(sp, 7).digest(), generate(sp, 8).digest()
		if a != b {
			t.Errorf("%s: seed 7 generated %s, then %s", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", sp.name)
		}
	}
}

// TestSmoke runs every workload at the smoke sizing, untraced and traced,
// and holds the results against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	contract, err := loadContract("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, contract.EndToEnd...), contract.PerLayer...) {
		if declared[d.Name] {
			t.Errorf("BENCHMARK.json declares %s twice", d.Name)
		}
		declared[d.Name] = true
	}
	all := specs()
	if len(contract.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(contract.Workloads), len(all))
	}
	bin, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range all {
		if contract.Workloads[i].Name != sp.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, contract.Workloads[i].Name, sp.name)
		}
		plain, err := runWorkload(contract, sp, bin, 1, contract.RunSeconds, false, true)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		traced, err := runWorkload(contract, sp, bin, 1, contract.RunSeconds, true, true)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		for _, res := range []*result{plain, traced} {
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d checks=%q", sp.name, res.Traced, res.Correct, res.Failed, res.Checks)
			}
			for name := range res.Metrics {
				if !declared[name] {
					t.Errorf("%s: metric %s is measured but not declared in BENCHMARK.json", sp.name, name)
				}
			}
		}
		for _, d := range contract.EndToEnd {
			if v, ok := plain.Metrics[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v (measured: %v), want a positive number", sp.name, d.Name, v, ok)
			}
		}
		if _, err := plain.contractLine(contract.EndToEnd); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
		for _, d := range contract.PerLayer {
			if _, ok := traced.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing from the traced run", sp.name, d.Name)
			}
		}
		// Same seed, same inputs, and on the single-connection workloads the
		// same digits out.
		if plain.InputsSHA256 != traced.InputsSHA256 {
			t.Errorf("%s: inputs differ between two runs of seed 1", sp.name)
		}
		a, b := plain.Metrics["truth_err_norm"], traced.Metrics["truth_err_norm"]
		if sp.ingest == ingestPerUser && math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: truth_err_norm %v then %v on the same seed", sp.name, a, b)
		} else if !close9(a, b) {
			t.Errorf("%s: truth_err_norm %v then %v on the same seed", sp.name, a, b)
		}
	}
}
