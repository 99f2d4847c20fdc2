package httpapi

import (
	"log/slog"
	"net/http"
	"slices"
	"time"

	"eta2/internal/obs"
	"eta2/internal/repl"
	"eta2/internal/trace"
)

// HTTP-layer metrics. The route label declares the route table's patterns
// plus the synthetic "unmatched" for 404s, the method label methodLabels,
// and the code label the five classes codeClass returns. Per-route
// histograms are resolved once at Handler construction; the request path
// performs only atomic updates plus one counter lookup for the (method,
// code-class) pair.
var (
	mHTTPRequests = obs.Default().CounterVec("eta2_http_requests_total",
		"HTTP requests served, by route, method, and status class.",
		routeLabel, obs.Label("method", methodLabels...), obs.Label("code", codeLabels...))
	mHTTPDur = obs.Default().HistogramVec("eta2_http_request_duration_seconds",
		"HTTP request latency, fsync waits and truth analysis included.",
		obs.DefBuckets, routeLabel)
	mHTTPInFlight = obs.Default().Gauge("eta2_http_in_flight_requests",
		"Requests currently being served.")
)

// statusWriter captures the status code a handler wrote. Handlers in this
// package only use WriteHeader/Write, so no further interface forwarding
// (Flusher, Hijacker) is needed.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// routeLabel declares the route label: every pattern of the route table,
// then "unmatched".
var routeLabel = func() obs.LabelDecl {
	names := make([]string, 0, len(routes)+1)
	for _, rt := range routes {
		names = append(names, rt.pattern)
	}
	return obs.Label("route", append(names, "unmatched")...)
}()

// methodLabels is the closed set normalizeMethod maps onto: the standard
// methods, then "other".
var methodLabels = []string{"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE",
	"CONNECT", "OPTIONS", "TRACE", "other"}

// normalizeMethod maps a request's method — arbitrary client-controlled
// bytes — onto methodLabels, so a client sending garbage verbs cannot
// mint unbounded time series.
func normalizeMethod(m string) string {
	if i := slices.Index(methodLabels, m); i >= 0 {
		return methodLabels[i]
	}
	return "other"
}

// codeLabels are the status classes codeClass returns.
var codeLabels = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// codeClass buckets a status code into 1xx..5xx: below 200 is 1xx, 500 and
// above is 5xx.
func codeClass(status int) string {
	return codeLabels[min(max(status/100, 1), 5)-1]
}

// instrument wraps one route handler with the in-flight gauge, the
// per-route latency histogram, the request counter, and — when the
// request is sampled (or forces tracing with an X-Eta2-Trace header) —
// a root trace span propagated through the request context plus one
// structured log line carrying the trace id. Root span names
// ("METHOD /route") are precomputed per route so an unsampled request
// allocates nothing here.
func (h *Handler) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	hist := mHTTPDur.With(route)
	tracer := h.server.Tracer()
	rootNames := make(map[string]string, len(methodLabels)) //eta2:allocdiscipline-ok built once per route at Handler construction, read-only per request
	for _, m := range methodLabels {
		rootNames[m] = m + " " + route
	}
	return func(w http.ResponseWriter, r *http.Request) {
		mHTTPInFlight.Add(1)
		defer mHTTPInFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		method := normalizeMethod(r.Method)
		t := tracer.StartRoot(rootNames[method], r.Header.Get(repl.HeaderTrace) != "")
		if t != nil {
			r = r.WithContext(trace.NewContext(r.Context(), t))
		}
		fn(sw, r)
		dur := time.Since(start)
		hist.Observe(dur.Seconds())
		mHTTPRequests.With(route, method, codeClass(sw.status)).Inc()
		if t != nil {
			t.End()
			slog.Info("request",
				"trace_id", t.ID().String(),
				"method", method,
				"route", route,
				"status", sw.status,
				"dur_ms", float64(dur)/float64(time.Millisecond))
		}
	}
}
