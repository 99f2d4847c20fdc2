// Package obs is the zero-dependency observability layer of the ETA²
// server: a metrics registry of atomic counters, gauges, and fixed-bucket
// histograms, plus a Prometheus text-exposition encoder (expose.go) and
// build-info publishing (buildinfo.go).
//
// Design constraints, in order:
//
//   - Hot paths are lock-free. Counter.Inc / Gauge.Set / Histogram.Observe
//     are one or two atomic operations; Vec.With finds each value in its
//     label's declared set and loads one slot of a fixed table. No
//     instrumented code path ever blocks on a mutex held by a scrape.
//   - Label values are declared: a family registers each label's closed
//     value set (Label), so its cardinality is fixed, and any other value
//     panics at With, naming the family, the label and the value.
//   - Zero third-party dependencies: the standard library only.
//   - Registration is idempotent so package-level `var m = obs.Default().
//     Counter(...)` works across repeated test binaries and multiple
//     servers in one process. Re-registering a name with a different
//     type, label declaration, or bucket layout panics: that is a
//     programming error, caught at init time.
//
// Metric values are process-wide (the registry is shared by every server
// instance in the process), matching the Prometheus model where one
// scrape target is one process. Gauges published by multiple concurrent
// instances are last-writer-wins. The families a server serves are the
// golden list DESIGN.md §13 points to.
//
// A scrape observes each atomic independently, so a histogram's sum and
// bucket counts may be skewed by updates racing the scrape — the standard
// Prometheus client behavior, harmless for rate/quantile queries.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"slices"
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
// registration time keeps the scrape output greppable by prefix.
var metricNameRE = regexp.MustCompile(`^eta2_[a-z0-9_]+$`)

// nameRE is the Prometheus label name charset.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

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

// LabelDecl is one label of a family: its name and every value it may take.
type LabelDecl struct {
	name   string
	values []string
}

// Label declares a label and its closed value set, in the order the
// family's Vec.With takes them.
func Label(name string, values ...string) LabelDecl {
	return LabelDecl{name: name, values: slices.Clone(values)}
}

// family is one named metric family with a fixed type and label schema.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string   // label names, in declaration order
	values  [][]string // values[i] is labels[i]'s declared value set
	buckets []float64  // histogram upper bounds, ascending, +Inf implicit

	// slots holds one series per tuple of declared values, row-major in
	// declaration order; a nil slot is a series not used yet, so only
	// used series are exposed.
	slots []atomic.Pointer[child]
}

// child is one (family, label values) time series.
type child struct {
	values []string
	metric any // *Counter, *Gauge, or *Histogram
}

// register returns the family for name, creating it on first use and
// validating that repeated registrations agree on type and schema.
func (r *Registry) register(name, help string, k kind, decls []LabelDecl, buckets []float64) *family {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (must match ^eta2_[a-z0-9_]+$)", name))
	}
	f := &family{name: name, help: help, kind: k, buckets: buckets}
	n := 1
	for _, d := range decls {
		if !nameRE.MatchString(d.name) || strings.HasPrefix(d.name, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q for metric %q", d.name, name))
		}
		if len(d.values) == 0 {
			panic(fmt.Sprintf("obs: metric %q label %q declares no values", name, d.name))
		}
		for i, v := range d.values {
			if slices.Contains(d.values[:i], v) {
				panic(fmt.Sprintf("obs: metric %q label %q declares value %q twice", name, d.name, v))
			}
		}
		f.labels = append(f.labels, d.name)
		f.values = append(f.values, d.values)
		n *= len(d.values)
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
			f.buckets = buckets[:len(buckets)-1] // +Inf is implicit
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.families[name]; ok {
		if old.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k, old.kind))
		}
		if !slices.Equal(old.labels, f.labels) || !slices.EqualFunc(old.values, f.values, slices.Equal) {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v %v, was %v %v", name, f.labels, f.values, old.labels, old.values))
		}
		if !slices.Equal(old.buckets, f.buckets) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		return old
	}
	f.slots = make([]atomic.Pointer[child], n)
	r.families[name] = f
	return f
}

// with returns the series for the given label values, creating it on first
// use. Each value is looked up in its label's declared set; the tuple's
// slot is then one atomic load, and a racing first use keeps one child.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	slot := 0
	for i, v := range values {
		j := slices.Index(f.values[i], v)
		if j < 0 {
			panic(fmt.Sprintf("obs: metric %q label %q: undeclared value %q", f.name, f.labels[i], v))
		}
		slot = slot*len(f.values[i]) + j
	}
	if c := f.slots[slot].Load(); c != nil {
		return c
	}
	// The child keeps the declared strings, decoded from the slot.
	c := &child{values: make([]string, len(values))}
	for i, rest := len(values)-1, slot; i >= 0; i-- {
		n := len(f.values[i])
		c.values[i], rest = f.values[i][rest%n], rest/n
	}
	switch f.kind {
	case kindCounter:
		c.metric = new(Counter)
	case kindGauge:
		c.metric = new(Gauge)
	default:
		c.metric = &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	if f.slots[slot].CompareAndSwap(nil, c) {
		return c
	}
	return f.slots[slot].Load()
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

// With returns the counter for the given declared label values, creating
// it on first use. Resolve once and cache in hot paths when possible.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.with(values).metric.(*Counter)
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...LabelDecl) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, labels, nil)}
}

// ---- gauge ----

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if disabled.Load() {
		return
	}
	g.v.bits.Store(math.Float64bits(v))
}

// Add adds delta (negative to subtract) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if disabled.Load() {
		return
	}
	g.v.Add(delta)
}

// SetToCurrentTime sets the gauge to the wall clock in Unix seconds — a
// freshness timestamp. The reading goes into the gauge and nowhere else.
//
//eta2:replaypurity-ok the clock reading is stored in the gauge and never returned, so it cannot reach replayed state
func (g *Gauge) SetToCurrentTime() {
	g.Set(float64(time.Now().UnixNano()) / 1e9)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given declared label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.with(values).metric.(*Gauge)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...LabelDecl) *GaugeVec {
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

// With returns the histogram for the given declared label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.with(values).metric.(*Histogram)
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// ascending bucket upper bounds (+Inf is always added implicitly).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...LabelDecl) *HistogramVec {
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
