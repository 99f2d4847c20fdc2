// Package obs is the zero-dependency observability layer of the ETA²
// server: a metrics registry of atomic counters, gauges, and fixed-bucket
// histograms, plus a Prometheus text-exposition encoder (expose.go) and
// build-info publishing (buildinfo.go).
//
// Design constraints, in order:
//
//   - Hot paths are lock-free. Counter.Inc / Gauge.Set / Histogram.Observe
//     are one or two atomic operations; labeled lookups (Vec.With) are a
//     sync.Map read after first use. No instrumented code path ever blocks
//     on a mutex held by a scrape.
//   - Zero third-party dependencies: the standard library only.
//   - Registration is idempotent so package-level `var m = obs.Default().
//     Counter(...)` works across repeated test binaries and multiple
//     servers in one process. Re-registering a name with a different
//     type, label set, or bucket layout panics: that is a programming
//     error, caught at init time.
//
// Metric values are process-wide (the registry is shared by every server
// instance in the process), matching the Prometheus model where one
// scrape target is one process. Gauges published by multiple concurrent
// instances are last-writer-wins; see DESIGN.md §13 for the taxonomy and
// cardinality budget.
//
// A scrape observes each atomic independently, so a histogram's sum and
// bucket counts may be skewed by updates racing the scrape — the standard
// Prometheus client behavior, harmless for rate/quantile queries.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// disabled turns every metric update into a cheap no-op when set. It
// exists so benchmarks can measure the instrumented hot path against the
// uninstrumented one in the same binary, and as an operational kill
// switch. Scrapes still work; values just stop moving.
var disabled atomic.Bool

// SetDisabled enables or disables all metric updates process-wide.
func SetDisabled(d bool) { disabled.Store(d) }

// metricNameRE enforces the project naming convention, a strict subset
// of the Prometheus charset: every family lives under the eta2_
// namespace in lowercase snake_case. Rejecting everything else at
// registration time keeps the scrape output greppable by prefix and is
// the runtime twin of the metrichygiene static check.
var metricNameRE = regexp.MustCompile(`^eta2_[a-z0-9_]+$`)

// nameRE is the Prometheus label name charset.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families by name. The zero value is not usable;
// use NewRegistry or the process-wide Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry. Instrumented packages use
// Default; private registries are for tests.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package
// registers into.
func Default() *Registry { return defaultRegistry }

// family is one named metric family with a fixed type and label schema.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, +Inf implicit

	mu       sync.Mutex // guards child creation (reads go through children)
	children sync.Map   // label-values key -> *child
}

// child is one (family, label values) time series.
type child struct {
	values []string
	metric any // *Counter, *Gauge, or *Histogram
}

// labelKey joins label values into a map key. \xff cannot appear in
// valid UTF-8 label values at a position that makes two distinct value
// tuples collide.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// register returns the family for name, creating it on first use and
// validating that repeated registrations agree on type and schema.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (must match ^eta2_[a-z0-9_]+$)", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q for metric %q", l, name))
		}
	}
	if k == kindHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
			}
		}
		if math.IsInf(buckets[len(buckets)-1], +1) {
			buckets = buckets[:len(buckets)-1] // +Inf is implicit
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, f.kind))
		}
		if !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v", name, labels, f.labels))
		}
		if k == kindHistogram && !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: labels, buckets: buckets}
	r.families[name] = f
	return f
}

// with returns the child for the given label values, creating it with
// mk on first use. The fast path is a single lock-free sync.Map read.
func (f *family) with(values []string, mk func() any) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	if c, ok := f.children.Load(key); ok {
		return c.(*child)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children.Load(key); ok {
		return c.(*child)
	}
	c := &child{values: append([]string(nil), values...), metric: mk()}
	f.children.Store(key, c)
	return c
}

// ---- counter ----

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating it on
// first use. Resolve once and cache in hot paths when possible; the
// lookup itself is a lock-free map read.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.with(values, func() any { return new(Counter) }).metric.(*Counter)
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, labels, nil)}
}

// ---- gauge ----

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if disabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (negative to subtract) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if disabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetToCurrentTime sets the gauge to the wall clock in Unix seconds — a
// freshness timestamp. The reading goes into the gauge and nowhere else.
//
//eta2:replaypurity-ok the clock reading is stored in the gauge and never returned, so it cannot reach replayed state
func (g *Gauge) SetToCurrentTime() {
	g.Set(float64(time.Now().UnixNano()) / 1e9)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.with(values, func() any { return new(Gauge) }).metric.(*Gauge)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels, nil)}
}

// ---- histogram ----

// Histogram counts observations into fixed buckets (Prometheus
// convention: `le` upper bounds, inclusive) and accumulates their sum.
type Histogram struct {
	upper  []float64       // shared with the family; read-only
	counts []atomic.Uint64 // len(upper)+1; last slot is +Inf
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if disabled.Load() {
		return
	}
	// First bucket whose upper bound covers v (le is inclusive); values
	// above every bound land in the implicit +Inf slot.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Timer is a running stopwatch for latency metrics. Its reading has one
// outlet, ObserveTo, so instrumented code never holds a time.Time or a
// Duration of its own: a Timer can feed a histogram and nothing else.
type Timer struct{ start time.Time }

// StartTimer starts a stopwatch.
//
//eta2:replaypurity-ok a Timer's clock readings are unexported and end in a histogram bucket (ObserveTo), so they cannot reach replayed state
func StartTimer() Timer { return Timer{start: time.Now()} }

// ObserveTo records the seconds elapsed since StartTimer into h. The second
// reading also comes from StartTimer, the one function that reads the clock.
func (t Timer) ObserveTo(h *Histogram) {
	h.Observe(StartTimer().start.Sub(t.start).Seconds())
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.with(values, func() any { return newHistogram(v.fam.buckets) }).metric.(*Histogram)
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// ascending bucket upper bounds (+Inf is always added implicitly).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, kindHistogram, labels, buckets)}
}

// atomicFloat is a float64 accumulator updated with a CAS loop.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// ---- bucket helpers ----

// DefBuckets is the default latency bucket layout, in seconds: 500µs to
// 10s, the span of an HTTP request against this server (sub-millisecond
// reads through multi-second MLE close-step calls).
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ExpBuckets returns count buckets starting at start, each factor times
// the previous.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //eta2:floatcmp-ok schema identity check: re-registration must supply bit-identical bucket bounds
			return false
		}
	}
	return true
}
