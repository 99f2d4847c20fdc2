// Package trace is a zero-dependency, allocation-disciplined tracing
// layer for the write path (DESIGN.md §13). It records W3C-style
// trace/span identifiers (16-byte trace id, 8-byte span ids, hex on the
// wire), propagates the active trace through context.Context, and times
// spans against a single monotonic reference per trace.
//
// The design constraints come from the ingest alloc budgets (DESIGN.md
// §15):
//
//   - Disabled or unsampled tracing costs a few atomics and nil checks:
//     every method on a nil *Trace or nil *Span is a no-op, so the hot
//     path is written unconditionally and pays nothing when untraced.
//   - A sampled trace is one allocation: spans live in a fixed inline
//     array inside the Trace (overflow is dropped and counted), and the
//     span handles returned by StartSpan point into that array.
//   - Completed traces are immutable. The flight recorder (recorder.go)
//     and the replication ship table only ever hold completed traces,
//     so concurrent readers (GET /v1/admin/traces, log shipping) never
//     race a writer.
//
// Sampling is head-based: the decision is made once, at StartRoot, by a
// 1-in-N atomic counter. Forced roots (an inbound X-Eta2-Trace request
// header, CI smoke tests) bypass the sampler so a single request can be
// traced deterministically.
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Span names used across the write path. Shared constants so the server,
// the replication plumbing, and the tests agree on the vocabulary.
const (
	SpanEncode          = "encode"           // validate + journal payload encode
	SpanJournalAppend   = "journal append"   // buffered WAL append (LSN assigned)
	SpanFsyncWait       = "fsync wait"       // group-commit durability wait
	SpanPublish         = "publish"          // immutable snapshot publication
	SpanTruthEstimate   = "truth estimate"   // MLE / dynamic update in CloseTimeStep
	SpanReplShip        = "repl ship"        // primary handed the trace to a follower
	SpanFollowerJournal = "follower journal" // follower's journal-before-apply append
	SpanFollowerApply   = "follower apply"   // follower applied the shipped record
	SpanFollowerCommit  = "follower commit"  // follower's local log commit
)

// MaxSpans is the inline span capacity of a Trace. The deepest in-tree
// trace (a cross-node write) uses nine spans; anything past MaxSpans is
// dropped and counted by eta2_trace_spans_dropped_total.
const MaxSpans = 16

// TraceID is a 16-byte W3C-style trace identifier.
type TraceID [16]byte

// String returns the 32-hex-digit form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// Span is one timed section of a trace. Spans are stored inline in the
// owning Trace; the *Span handles StartSpan returns stay valid for the
// life of the trace. Off/Dur are offsets from the trace's start.
type Span struct {
	Name  string
	Annot string
	Off   time.Duration
	Dur   time.Duration
	id    uint64
	t     *Trace
}

// End stamps the span's duration. Nil-safe and idempotent (the first End
// wins), so error paths can End unconditionally.
func (s *Span) End() {
	if s == nil || s.Dur != 0 {
		return
	}
	d := time.Since(s.t.begin) - s.Off //eta2:replaypurity-ok span duration is observability data, never replayed
	if d <= 0 {
		d = 1 // sub-resolution section: keep "ended" distinguishable from "open"
	}
	s.Dur = d
}

// Annotate attaches a short note (e.g. "role=leader") to the span.
// Nil-safe.
func (s *Span) Annotate(note string) {
	if s != nil {
		s.Annot = note
	}
}

// Trace is one sampled request (or background job). It is built by a
// single goroutine — spans are recorded in start order into the inline
// array — and becomes immutable once End publishes it to the recorder.
type Trace struct {
	tr       *Tracer
	id       TraceID
	sidBase  uint64 // span ids are sidBase+index: one random draw per trace
	root     string
	begin    time.Time // monotonic reference for span offsets
	wall     int64     // unix nanos at begin (cross-node offset mapping)
	lsn      uint64
	n        int
	spans    [MaxSpans]Span
	dropped  int
	dur      time.Duration
	imported bool // completed on a follower from a shipped trace
	done     atomic.Bool
}

// StartSpan opens a child span. Returns nil (a valid no-op handle) on a
// nil trace or when the inline span array is full.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	if t.n >= MaxSpans {
		t.dropped++
		return nil
	}
	sp := &t.spans[t.n]
	sp.Name = name
	sp.Annot = ""
	sp.Off = time.Since(t.begin) //eta2:replaypurity-ok span offset is observability data, never replayed
	sp.Dur = 0
	sp.id = t.sidBase + uint64(t.n)
	sp.t = t
	t.n++
	return sp
}

// AddRemoteSpan records a span whose timing was measured outside this
// trace's own clock (a follower's apply loop timing a record before the
// shipped trace arrived). start is a wall-clock time; the offset is
// computed against the trace's wall-clock origin and clamped at zero so
// cross-node clock skew cannot produce negative offsets. Nil-safe.
func (t *Trace) AddRemoteSpan(name string, start time.Time, dur time.Duration, annot string) {
	if t == nil {
		return
	}
	if t.n >= MaxSpans {
		t.dropped++
		return
	}
	off := time.Duration(start.UnixNano() - t.wall)
	if off < 0 {
		off = 0
	}
	if dur <= 0 {
		dur = 1
	}
	sp := &t.spans[t.n]
	*sp = Span{Name: name, Annot: annot, Off: off, Dur: dur, id: t.sidBase + uint64(t.n), t: t}
	t.n++
}

// SetLSN records the journal LSN this trace's mutation was assigned.
// LSN-carrying traces are indexed for replication shipping at End.
// Nil-safe.
func (t *Trace) SetLSN(lsn uint64) {
	if t != nil {
		t.lsn = lsn
	}
}

// ID returns the trace identifier (zero value on a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// LSN returns the journal LSN recorded by SetLSN, 0 if none.
func (t *Trace) LSN() uint64 {
	if t == nil {
		return 0
	}
	return t.lsn
}

// Root returns the root span name (e.g. "POST /v1/observations").
func (t *Trace) Root() string {
	if t == nil {
		return ""
	}
	return t.root
}

// Duration returns the completed trace's duration (0 before End).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return t.dur
}

// End completes the trace: the root span and overall duration are
// stamped and the trace is published to the tracer's flight recorder
// (and, for LSN-carrying traces on a shipping primary, to the
// replication ship table). Nil-safe and idempotent; after End the trace
// is immutable.
func (t *Trace) End() {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	if t.imported {
		// An imported trace's begin is the import time, not the real
		// start; the duration is the span envelope instead.
		var max time.Duration
		for i := 0; i < t.n; i++ {
			if end := t.spans[i].Off + t.spans[i].Dur; end > max {
				max = end
			}
		}
		t.dur = max
	} else {
		t.dur = time.Since(t.begin)
	}
	if t.n > 0 && t.spans[0].Dur == 0 {
		t.spans[0].Dur = t.dur // root span covers the whole trace
	}
	t.tr.record(t)
}

// Tracer owns the sampling decision, the flight recorder, and the
// replication ship table for one server. Per-server (not process-global)
// so an in-process primary + follower pair — the replication tests —
// keep separate recorders.
type Tracer struct {
	every      atomic.Int64 // sample 1 in every; <= 0 disables sampling
	seq        atomic.Uint64
	shipActive atomic.Bool
	rec        *Recorder
	ship       shipTable
}

// New creates a Tracer sampling one root in sampleEvery (0 disables;
// forced roots always record) with a flight recorder holding capacity
// completed traces.
func New(sampleEvery, capacity int) *Tracer {
	tr := &Tracer{rec: newRecorder(capacity)}
	tr.every.Store(int64(sampleEvery))
	return tr
}

// SetSampleEvery adjusts the sampling interval at runtime (0 disables).
func (tr *Tracer) SetSampleEvery(n int) {
	if tr != nil {
		tr.every.Store(int64(n))
	}
}

// Enabled reports whether head sampling is on.
func (tr *Tracer) Enabled() bool {
	return tr != nil && tr.every.Load() > 0
}

// Recorder returns the tracer's flight recorder.
func (tr *Tracer) Recorder() *Recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

// StartRoot opens a root trace named root (by convention "METHOD
// /route", or a job name for background work). It returns nil — the
// universal no-op handle — unless this root is sampled or forced. The
// unsampled path is one atomic add and a compare.
func (tr *Tracer) StartRoot(root string, forced bool) *Trace {
	if tr == nil {
		return nil
	}
	if !forced {
		every := tr.every.Load()
		if every <= 0 || tr.seq.Add(1)%uint64(every) != 0 {
			return nil
		}
	}
	t := &Trace{tr: tr, root: root, begin: time.Now(), sidBase: rand.Uint64()}
	t.wall = t.begin.UnixNano()
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		t.id[i] = byte(hi >> (8 * i))
		t.id[8+i] = byte(lo >> (8 * i))
	}
	t.StartSpan(root) // span 0: the root span; End stamps its duration
	return t
}

// record publishes a completed trace: metrics, flight recorder, and —
// when replication is live and the trace carries an LSN — the ship
// table that hands it to the next log fetch.
func (tr *Tracer) record(t *Trace) {
	mTraceCompleted.Inc()
	mTraceDur.Observe(t.dur.Seconds())
	if t.dropped > 0 {
		mTraceSpansDropped.Add(uint64(t.dropped))
	}
	tr.rec.add(t)
	if t.lsn != 0 && !t.imported && tr.shipActive.Load() {
		tr.ship.put(t)
	}
}

// MarkShipActive flips the tracer into shipping mode: before any
// follower has fetched the log, completed traces skip the ship table
// entirely. TakeShippedTraces marks implicitly, so the first log fetch
// a follower makes activates shipping for every later trace.
func (tr *Tracer) MarkShipActive() {
	if tr != nil && !tr.shipActive.Load() {
		tr.shipActive.Store(true)
	}
}

// TakeShippedTraces removes and returns up to max serialized traces
// whose LSN is at or below upTo, each with a repl-ship span appended.
// The caller (the replication log endpoint) attaches them as
// X-Eta2-Trace response headers.
func (tr *Tracer) TakeShippedTraces(upTo uint64, max int) [][]byte {
	if tr == nil {
		return nil
	}
	tr.MarkShipActive()
	taken := tr.ship.take(upTo, max)
	if len(taken) == 0 {
		return nil
	}
	out := make([][]byte, 0, len(taken))
	for _, t := range taken {
		data, err := t.marshalShipped()
		if err != nil {
			continue
		}
		out = append(out, data)
		mTraceShipped.Inc()
	}
	return out
}

// ---- context propagation ------------------------------------------------

type ctxKey struct{}

// NewContext returns ctx carrying t. A nil trace returns ctx unchanged,
// so untraced requests never pay the context allocation.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — and every
// method on a nil trace no-ops, so callers use the result unguarded.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
