package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tc := tr.StartRoot("POST /x", true)
	if tc != nil {
		t.Fatal("nil tracer produced a trace")
	}
	// Every downstream call must be safe on the nil handles.
	sp := tc.StartSpan("child")
	sp.Annotate("x")
	sp.End()
	tc.SetLSN(7)
	tc.AddRemoteSpan("r", time.Now(), time.Millisecond, "")
	tc.End()
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carried a trace")
	}
	if ctx := NewContext(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("nil trace stored in context")
	}
}

func TestSampling(t *testing.T) {
	tr := New(4, 16)
	var sampled int
	for i := 0; i < 40; i++ {
		if tc := tr.StartRoot("w", false); tc != nil {
			sampled++
			tc.End()
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 at 1-in-4", sampled)
	}
	tr.SetSampleEvery(0)
	if tr.Enabled() {
		t.Fatal("enabled after SetSampleEvery(0)")
	}
	if tc := tr.StartRoot("w", false); tc != nil {
		t.Fatal("sampled while disabled")
	}
	if tc := tr.StartRoot("w", true); tc == nil {
		t.Fatal("forced root not traced while sampling disabled")
	}
}

func TestSpanRecordingAndExport(t *testing.T) {
	tr := New(1, 16)
	tc := tr.StartRoot("POST /v1/observations", false)
	if tc == nil {
		t.Fatal("1-in-1 sampling missed")
	}
	sp := tc.StartSpan(SpanJournalAppend)
	sp.Annotate("role=leader")
	sp.End()
	sp.End() // idempotent
	tc.SetLSN(42)
	tc.End()
	tc.End() // idempotent

	w := tc.Export()
	if w.LSN != 42 || w.Root != "POST /v1/observations" {
		t.Fatalf("export header = %+v", w)
	}
	if len(w.ID) != 32 {
		t.Fatalf("trace id %q not 32 hex digits", w.ID)
	}
	if len(w.Spans) != 2 || w.Spans[0].Name != "POST /v1/observations" || w.Spans[1].Name != SpanJournalAppend {
		t.Fatalf("spans = %+v", w.Spans)
	}
	if w.Spans[1].Annot != "role=leader" {
		t.Fatalf("annot = %q", w.Spans[1].Annot)
	}
	if w.Spans[0].DurNS <= 0 || w.DurNS <= 0 {
		t.Fatalf("durations not stamped: %+v", w)
	}
	if got := tr.Recorder().Snapshot(); len(got) != 1 || got[0] != tc {
		t.Fatalf("recorder snapshot = %v", got)
	}
}

func TestSpanOverflowCounted(t *testing.T) {
	tr := New(1, 4)
	tc := tr.StartRoot("w", false)
	for i := 0; i < MaxSpans+3; i++ {
		s := tc.StartSpan("s")
		s.End()
	}
	tc.End()
	if tc.Export().Dropped != 4 { // 3 over capacity + 1 (root took slot 0)
		t.Fatalf("dropped = %d", tc.Export().Dropped)
	}
}

func TestRecorderKeepsSlowest(t *testing.T) {
	tr := New(1, 2) // ring of 2: fast traces churn through it
	slow := tr.StartRoot("slow", false)
	slow.dur = time.Second // stamp directly; End would overwrite with real elapsed
	slow.spans[0].Dur = slow.dur
	if !slow.done.CompareAndSwap(false, true) {
		t.Fatal("fresh trace already done")
	}
	tr.record(slow)
	for i := 0; i < 50; i++ {
		tr.StartRoot("fast", false).End()
	}
	found := false
	for _, tc := range tr.Recorder().Snapshot() {
		if tc == slow {
			found = true
		}
	}
	if !found {
		t.Fatal("slowest trace evicted from flight recorder")
	}
}

func TestShipRoundTrip(t *testing.T) {
	primary := New(1, 16)
	primary.MarkShipActive()
	tc := primary.StartRoot("POST /v1/observations", true)
	tc.StartSpan(SpanJournalAppend).End()
	tc.SetLSN(9)
	tc.End()

	// Frontier below the trace's LSN: nothing ships yet.
	if got := primary.TakeShippedTraces(8, 8); got != nil {
		t.Fatalf("shipped below frontier: %v", got)
	}
	shipped := primary.TakeShippedTraces(9, 8)
	if len(shipped) != 1 {
		t.Fatalf("shipped %d traces", len(shipped))
	}
	if again := primary.TakeShippedTraces(9, 8); again != nil {
		t.Fatalf("trace shipped twice: %v", again)
	}
	var w TraceJSON
	if err := json.Unmarshal(shipped[0], &w); err != nil {
		t.Fatalf("shipped payload not JSON: %v", err)
	}
	last := w.Spans[len(w.Spans)-1]
	if last.Name != SpanReplShip {
		t.Fatalf("shipped trace missing repl-ship span: %+v", w.Spans)
	}

	follower := New(0, 16)
	imp, err := follower.Import(shipped[0])
	if err != nil {
		t.Fatal(err)
	}
	if imp.ID() != tc.ID() || imp.LSN() != 9 {
		t.Fatalf("imported identity mismatch: id=%s lsn=%d", imp.ID(), imp.LSN())
	}
	applyStart := time.Now()
	imp.AddRemoteSpan(SpanFollowerApply, applyStart, 2*time.Millisecond, "")
	imp.End()

	recs := follower.Recorder().Snapshot()
	if len(recs) != 1 {
		t.Fatalf("follower recorder has %d traces", len(recs))
	}
	names := make([]string, 0, 8)
	for _, sp := range recs[0].spans[:recs[0].n] {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, SpanReplShip) || !strings.Contains(joined, SpanFollowerApply) {
		t.Fatalf("merged span names = %v", names)
	}
	if recs[0].Duration() <= 0 {
		t.Fatalf("imported trace duration = %v", recs[0].Duration())
	}
}

func TestShipTableBounded(t *testing.T) {
	tr := New(1, 16)
	tr.MarkShipActive()
	for i := 1; i <= shipTableMax+10; i++ {
		tc := tr.StartRoot("w", true)
		tc.SetLSN(uint64(i))
		tc.End()
	}
	got := tr.TakeShippedTraces(^uint64(0), shipTableMax+10)
	if len(got) != shipTableMax {
		t.Fatalf("ship table held %d traces, want bound %d", len(got), shipTableMax)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	tr := New(0, 4)
	if _, err := tr.Import([]byte("not json")); err == nil {
		t.Fatal("imported garbage")
	}
	if _, err := tr.Import([]byte(`{"trace_id":"xyz"}`)); err == nil {
		t.Fatal("imported bad trace id")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(1, 4)
	tc := tr.StartRoot("w", true)
	ctx := NewContext(context.Background(), tc)
	if FromContext(ctx) != tc {
		t.Fatal("context round trip lost the trace")
	}
	tc.End()
}
