// Package eta2 exercises spandiscipline against the write-path shapes
// the real server uses.
package eta2

import (
	"context"
	"errors"

	"eta2/internal/trace"
)

var tracer *trace.Tracer

var errBoom = errors.New("boom")

// Straight start → work → End: compliant.
func straightLine(t *trace.Trace) error {
	sp := t.StartSpan("encode")
	work()
	sp.End()
	return nil
}

// Deferred End discharges every path at once: compliant.
func deferredEnd(t *trace.Trace) error {
	sp := t.StartSpan("encode")
	defer sp.End()
	if work() {
		return errBoom
	}
	return nil
}

// The early return leaves the span open.
func earlyReturnLeak(t *trace.Trace) error {
	sp := t.StartSpan("encode") // want "StartSpan result sp is not ended on every path"
	if work() {
		return errBoom
	}
	sp.End()
	return nil
}

// Ending on the error path and the fall-through: compliant.
func bothPathsEnd(t *trace.Trace) error {
	sp := t.StartSpan("encode")
	if work() {
		sp.End()
		return errBoom
	}
	sp.End()
	return nil
}

// Ending in only one arm of an if/else.
func oneArmEnds(t *trace.Trace) error {
	sp := t.StartSpan("encode") // want "StartSpan result sp is not ended on every path"
	if work() {
		sp.End()
	} else {
		work()
	}
	return nil
}

// A discarded handle can never be ended.
func discarded(t *trace.Trace) {
	t.StartSpan("encode") // want "StartSpan result discarded"
}

// Discarding via the blank identifier is the same mistake.
func blankDiscard(t *trace.Trace) {
	_ = t.StartSpan("encode") // want "StartSpan result discarded"
}

// Passing the handle to another call hands over the End obligation —
// the journalCommit shape.
func escapeByCall(t *trace.Trace) error {
	fsync := t.StartSpan("fsync wait")
	return commitSpanned(1, fsync)
}

// A handle opened conditionally and then passed along: compliant (the
// real AddUsersContext shape).
func conditionalEscape(t *trace.Trace) error {
	var fsync *trace.Span
	if work() {
		fsync = t.StartSpan("fsync wait")
	}
	return commitSpanned(2, fsync)
}

// Returning the handle makes the caller the owner — the
// compactionTrace shape.
func escapeByReturn() *trace.Trace {
	return tracer.StartRoot("compaction", true)
}

// Storing the handle gives it a second owner this walk cannot follow.
type holder struct{ sp *trace.Span }

func escapeByStore(t *trace.Trace, h *holder) {
	sp := t.StartSpan("encode")
	h.sp = sp
}

// Captured by a closure: the closure may End it later.
func escapeByCapture(t *trace.Trace) func() {
	sp := t.StartSpan("encode")
	return func() { sp.End() }
}

// trace.NewContext is a carrier, not an owner: threading the handle
// through a context does not discharge the End obligation...
func carrierThenEnd(ctx context.Context, t *trace.Trace) {
	root := tracer.StartRoot("POST /v1/observations", false)
	_ = trace.NewContext(ctx, root)
	if root != nil {
		root.End()
	}
}

// ...so a root that only goes into a context is still flagged.
func carrierLeak(ctx context.Context) context.Context {
	root := tracer.StartRoot("POST /v1/observations", false) // want "StartRoot result root is not ended on every path"
	return trace.NewContext(ctx, root)
}

// The nil-guarded End is a complete discharge: on the other path the
// handle is nil and there is no span to end (the instrument shape).
func nilGuardedEnd() {
	root := tracer.StartRoot("GET /v1/truth", false)
	work()
	if root != nil {
		root.End()
	}
}

// An `== nil` early return is the same discharge inverted.
func nilEarlyReturn() {
	root := tracer.StartRoot("GET /v1/truth", false)
	if root == nil {
		return
	}
	root.End()
}

// Started and ended once per loop iteration: compliant.
func perIteration(t *trace.Trace) {
	for i := 0; i < 3; i++ {
		sp := t.StartSpan("chunk")
		work()
		sp.End()
	}
}

// Started in the loop, never ended: leaks one span per iteration.
// (Annotate is a plain receiver use, not an escape.)
func loopLeak(t *trace.Trace) {
	for i := 0; i < 3; i++ {
		sp := t.StartSpan("chunk") // want "StartSpan result sp is not ended on every path"
		work()
		sp.Annotate("chunked")
	}
}

// Handles started inside a function literal are that scope's problem.
func literalScope(t *trace.Trace) func() error {
	return func() error {
		sp := t.StartSpan("encode") // want "StartSpan result sp is not ended on every path"
		if work() {
			return errBoom
		}
		sp.End()
		return nil
	}
}

// A deliberate open span, annotated per line.
func annotatedLine(t *trace.Trace) {
	sp := t.StartSpan("encode") //eta2:spandiscipline-ok the recorder drain ends late spans
	sp.Annotate("deliberate")
}

// A deliberately exempt function.
//
//eta2:spandiscipline-ok latency fixture leaves spans open on purpose
func annotatedFunc(t *trace.Trace) {
	sp := t.StartSpan("encode")
	sp.Annotate("deliberate")
}

func work() bool { return false }

func commitSpanned(lsn uint64, sp *trace.Span) error {
	sp.End()
	return nil
}
