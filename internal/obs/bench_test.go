package obs

import (
	"io"
	"testing"
)

// Hot-path costs. The acceptance bar for the instrumented pipeline is
// "within noise", so the primitives must be a handful of nanoseconds.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("eta2_bench_counter", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("eta2_bench_counter", "x")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("eta2_bench_gauge", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("eta2_bench_hist", "x", DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("eta2_bench_hist", "x", DefBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}

// BenchmarkVecWith measures the labeled-series lookup, the only map access
// on any hot path that has not been hoisted to registration time.
func BenchmarkVecWith(b *testing.B) {
	routes := []string{"/v1/healthz", "/v1/users", "/v1/users/named", "/v1/tasks", "/v1/allocate/max-quality",
		"/v1/observations", "/v1/step/close", "/v1/truth", "/v1/expertise", "unmatched"}
	cv := NewRegistry().CounterVec("eta2_bench_vec", "x", Label("route", routes...),
		Label("method", "GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "CONNECT", "OPTIONS", "TRACE", "other"),
		Label("code", "1xx", "2xx", "3xx", "4xx", "5xx"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cv.With("/v1/observations", "POST", "2xx").Inc()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, name := range []string{"eta2_a_total", "eta2_b_total", "eta2_c_total"} {
		r.Counter(name, "x").Add(123)
	}
	routes := []string{"/v1/users", "/v1/tasks", "/v1/observations"}
	hv := r.HistogramVec("eta2_lat_seconds", "x", DefBuckets, Label("route", routes...))
	for _, route := range routes {
		hv.With(route).Observe(0.01)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
