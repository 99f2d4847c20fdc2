package eta2

import (
	"time"

	"eta2/internal/trace"
)

// Follower-side trace continuation (DESIGN.md §13). The primary ships a
// completed write trace on a later log response than the record it
// describes (the trace only completes once the submitter's fsync wait
// and HTTP span end), so the follower keeps a small ring of per-record
// apply timings: when the shipped trace arrives, the journal and apply
// spans it earned are grafted on from the ring, the local commit is
// stamped, and the merged trace lands in the follower's own flight
// recorder — one trace answering "when did this write become durable on
// the replica".
//
// Everything here runs on the pull-loop goroutine (applyRecord, the
// FetchLog trace sink, and finishBatch are all called from it), so the
// ring and the pending list need no locking.

// applyTimingRing is the number of recent record timings retained. A
// trace whose record fell out of the ring (more than this many records
// shipped between apply and trace arrival) still completes, with its
// follower spans annotated as lost instead of timed.
const applyTimingRing = 512

// pendingTraceMax bounds imported traces awaiting the local commit.
const pendingTraceMax = 64

type applyTiming struct {
	lsn          uint64
	journalStart time.Time
	journalDur   time.Duration
	applyStart   time.Time
	applyDur     time.Duration
}

// noteApplyTiming records one record's journal/apply timing in the ring.
func (f *Follower) noteApplyTiming(t applyTiming) {
	f.timings[t.lsn%applyTimingRing] = t
}

// lookupTiming returns the retained timing for lsn, if it has not been
// overwritten by a newer record.
func (f *Follower) lookupTiming(lsn uint64) (applyTiming, bool) {
	t := f.timings[lsn%applyTimingRing]
	return t, t.lsn == lsn
}

// importShippedTrace is the repl.Client trace sink: it rebuilds a
// primary write trace from an X-Eta2-Trace header, grafts on this
// follower's journal/apply spans, and parks it until the local log
// commit covers its LSN (completeTraces).
func (f *Follower) importShippedTrace(data []byte) {
	t, err := f.s.tracer.Import(data)
	if err != nil {
		return
	}
	if tm, ok := f.lookupTiming(t.LSN()); ok {
		t.AddRemoteSpan(trace.SpanFollowerJournal, tm.journalStart, tm.journalDur, "")
		t.AddRemoteSpan(trace.SpanFollowerApply, tm.applyStart, tm.applyDur, "")
	} else {
		// Record applied so long ago its timing left the ring (or it is
		// still in flight in a byte-capped batch): keep the trace, flag
		// the span as untimed.
		t.AddRemoteSpan(trace.SpanFollowerApply, time.Now(), 0, "timing-evicted")
	}
	if len(f.pendingTraces) >= pendingTraceMax {
		f.pendingTraces = f.pendingTraces[1:]
	}
	f.pendingTraces = append(f.pendingTraces, t)
}

// completeTraces finishes every pending trace whose record the local log
// has committed through durable: the follower-commit span is stamped
// with this batch's commit timing and the trace is published to the
// follower's flight recorder. Called from finishBatch even for empty
// batches — a quiet long poll can still deliver traces for records
// committed rounds ago.
func (f *Follower) completeTraces(durable uint64, commitStart time.Time, commitDur time.Duration) {
	if len(f.pendingTraces) == 0 {
		return
	}
	kept := f.pendingTraces[:0]
	for _, t := range f.pendingTraces {
		if t.LSN() <= durable {
			t.AddRemoteSpan(trace.SpanFollowerCommit, commitStart, commitDur, "")
			t.End()
		} else {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(f.pendingTraces); i++ {
		f.pendingTraces[i] = nil
	}
	f.pendingTraces = kept
}
