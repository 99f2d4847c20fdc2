package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestRegistry builds a registry exercising every metric type, label
// rendering, escaping, and histogram encoding.
func newTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("eta2_test_requests_total", "Requests served.").Add(42)

	rv := r.CounterVec("eta2_test_routed_total", "Requests by route and code.",
		Label("route", "/v1/truth", "/v1/users"), Label("code", "2xx", "4xx"))
	rv.With("/v1/truth", "2xx").Add(7)
	rv.With("/v1/truth", "4xx").Inc()
	rv.With("/v1/users", "2xx").Add(3)

	g := r.Gauge("eta2_test_in_flight", "In-flight requests.")
	g.Add(5)
	g.Add(-2)
	r.Gauge("eta2_test_temperature", "Signed gauge.").Set(-3.25)
	version := "v1+\"quo\\te\"\nline2"
	r.GaugeVec("eta2_test_build_info", "Escaping test; value 1.", Label("version", version)).
		With(version).Set(1)

	h := r.Histogram("eta2_test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2.5} {
		h.Observe(v)
	}
	hv := r.HistogramVec("eta2_test_sizes", "Sizes by kind.", []float64{1, 2, 4}, Label("kind", "read", "write"))
	hv.With("write").Observe(3)
	return r
}

func TestGoldenExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := newTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	r := newTestRegistry()
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two gathers of the same registry differ")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("eta2_h", "x", []float64{1, 2, 4})

	cases := []struct {
		v    float64
		slot int
	}{
		{0, 0},                    // below every bound -> first bucket
		{-5, 0},                   // negative too
		{1, 0},                    // le is inclusive: v == bound lands in that bucket
		{math.Nextafter(1, 2), 1}, // just past the bound -> next bucket
		{2, 1},
		{4, 2},
		{4.0001, 3}, // above the last bound -> +Inf slot
		{math.Inf(1), 3},
	}
	for _, c := range cases {
		before := h.counts[c.slot].Load()
		h.Observe(c.v)
		if got := h.counts[c.slot].Load(); got != before+1 {
			t.Errorf("Observe(%g): slot %d count = %d, want %d", c.v, c.slot, got, before+1)
		}
	}

	// Cumulative rendering: every bucket line must cover all smaller ones
	// and _count must equal the +Inf bucket.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`eta2_h_bucket{le="1"} 3`,
		`eta2_h_bucket{le="2"} 5`,
		`eta2_h_bucket{le="4"} 6`,
		`eta2_h_bucket{le="+Inf"} 8`,
		`eta2_h_count 8`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramImplicitInfBucket(t *testing.T) {
	r := NewRegistry()
	// A trailing +Inf in the bucket spec must not create a duplicate slot.
	h := r.Histogram("eta2_h", "x", []float64{1, math.Inf(1)})
	if got := len(h.counts); got != 2 {
		t.Fatalf("explicit +Inf bucket not collapsed: %d slots, want 2", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("eta2_c", "x")
	b := r.Counter("eta2_c", "other help is ignored")
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	h1 := r.HistogramVec("eta2_hv", "x", []float64{1, 2}, Label("l", "v"))
	h2 := r.HistogramVec("eta2_hv", "x", []float64{1, 2}, Label("l", "v"))
	if h1.With("v") != h2.With("v") {
		t.Error("re-registered histogram vec returned different children")
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("eta2_c", "x")
	mustPanic("kind mismatch", func() { r.Gauge("eta2_c", "x") })
	r.CounterVec("eta2_cv", "x", Label("a", "v"))
	mustPanic("label mismatch", func() { r.CounterVec("eta2_cv", "x", Label("b", "v")) })
	mustPanic("value set mismatch", func() { r.CounterVec("eta2_cv", "x", Label("a", "v", "w")) })
	r.Histogram("eta2_h", "x", []float64{1})
	mustPanic("bucket mismatch", func() { r.Histogram("eta2_h", "x", []float64{2}) })
	mustPanic("bad name", func() { r.Counter("bad name", "x") })
	mustPanic("missing prefix", func() { r.Counter("requests_total", "x") })
	mustPanic("bad label", func() { r.CounterVec("eta2_ok", "x", Label("bad-label", "v")) })
	mustPanic("descending buckets", func() { r.Histogram("eta2_h2", "x", []float64{2, 1}) })
	mustPanic("wrong arity", func() { r.CounterVec("eta2_cv2", "x", Label("a", "v"), Label("b", "v")).With("v") })
}

// TestMalformedLabelDeclarationPanics: a label that declares no value, or
// one value twice, is refused at registration, before any series exists.
func TestMalformedLabelDeclarationPanics(t *testing.T) {
	for _, c := range []struct {
		name, want string
		decls      []LabelDecl
	}{
		{"no values", `label "outcome" declares no values`, []LabelDecl{Label("outcome")}},
		{"duplicate value", `label "outcome" declares value "joined" twice`, []LabelDecl{Label("outcome", "joined", "expired", "joined")}},
		{"second label empty", `label "mode" declares no values`, []LabelDecl{Label("outcome", "joined"), Label("mode")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			msg := panicMessage(func() { r.CounterVec("eta2_gathers_total", "x", c.decls...) })
			if !strings.Contains(msg, c.want) {
				t.Errorf("panic %q, want it to contain %q", msg, c.want)
			}
			if _, ok := r.families["eta2_gathers_total"]; ok {
				t.Error("a malformed family was registered")
			}
		})
	}
}

// TestUndeclaredValuePanics: With takes only declared values, and the
// panic names the family, the label and the value. A declared tuple
// resolves to the same series every time, and only used series render.
func TestUndeclaredValuePanics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("eta2_requests_total", "x",
		Label("route", "/v1/truth", "unmatched"), Label("method", "GET", "other"))
	if cv.With("/v1/truth", "GET") != cv.With("/v1/truth", "GET") {
		t.Error("one tuple resolved to two series")
	}
	msg := panicMessage(func() { cv.With("/v1/truth", "BREW") })
	for _, want := range []string{`"eta2_requests_total"`, `"method"`, `"BREW"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not name %s", msg, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "eta2_requests_total{"); got != 1 {
		t.Errorf("%d series rendered, want the 1 used:\n%s", got, buf.String())
	}
}

func panicMessage(fn func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	fn()
	return "<no panic>"
}

// TestMetricNamePrefixEnforced pins the registration-time naming rule:
// only lowercase snake_case under the eta2_ namespace is accepted.
func TestMetricNamePrefixEnforced(t *testing.T) {
	accepted := []string{"eta2_requests_total", "eta2_x9", "eta2_a_b_c", "eta2__private"}
	for _, name := range accepted {
		r := NewRegistry()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("registering %q panicked: %v", name, p)
				}
			}()
			r.Counter(name, "x")
		}()
	}
	rejected := []string{
		"requests_total", // no namespace
		"eta2",           // bare prefix
		"eta2_",          // empty stem
		"eta2_Upper",     // uppercase
		"ETA2_total",     // uppercase prefix
		"eta2_dash-ed",   // outside [a-z0-9_]
		"eta2_colon:ed",  // Prometheus-legal but not project-legal
		"eta2_total ",    // trailing space
		"other_eta2_x",   // prefix not at the start
	}
	for _, name := range rejected {
		r := NewRegistry()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", name)
				}
			}()
			r.Counter(name, "x")
		}()
	}
}

func TestSetDisabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("eta2_c", "x")
	g := r.Gauge("eta2_g", "x")
	h := r.Histogram("eta2_h", "x", []float64{1})
	SetDisabled(true)
	c.Inc()
	g.Set(5)
	h.Observe(0.5)
	SetDisabled(false)
	if c.Value() != 0 || g.Value() != 0 || h.counts[0].Load() != 0 {
		t.Error("updates leaked through while disabled")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Error("counter dead after re-enabling")
	}
}

// TestTimerAndFreshnessGauge: the two clock-reading helpers land their
// reading in the metric — one observation of a small non-negative latency,
// and a Unix-seconds timestamp that is today's, not a nanosecond count.
func TestTimerAndFreshnessGauge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("eta2_h", "x", []float64{60})
	StartTimer().ObserveTo(h)
	if n, sum := h.counts[0].Load(), h.sum.Load(); n != 1 || sum < 0 || sum > 60 {
		t.Errorf("timer recorded %d observations summing %g s, want one in [0, 60]", n, sum)
	}
	g := r.Gauge("eta2_g", "x")
	before := float64(time.Now().Unix())
	g.SetToCurrentTime()
	if v := g.Value(); v < before || v > before+60 {
		t.Errorf("freshness gauge = %g, want Unix seconds near %g", v, before)
	}
}

func TestHandler(t *testing.T) {
	r := newTestRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status %d, want 405", post.StatusCode)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", exp, want)
		}
	}
}

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Error("Version() returned empty string")
	}
	r := NewRegistry()
	RegisterBuildInfo(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "eta2_build_info{") {
		t.Errorf("build info gauge missing:\n%s", buf.String())
	}
}
