package eta2

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRecoveryMemoryBounded pins the PR 8 streaming-recovery guarantee:
// replaying a write-ahead log far larger than the state it produces must
// hold peak heap within a small multiple of the final state size, not
// O(history). The WAL here is tens of megabytes of observation batches
// across many closed time steps (each close folds and clears the
// buffered observations, so the final state stays small); a recovery
// that buffered the log — or a snapshot decoder that slurped whole files
// — would blow the bound immediately.
func TestRecoveryMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and replays a large WAL; skipped in -short")
	}
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 256 << 20}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	// History shape: many small closed days (each close folds and clears
	// its observations, so replaying them needs only a day's working set)
	// followed by a large unclosed tail whose backlog the recovered
	// server retains — the final state the bound is measured against.
	const (
		batch       = 512
		batchesPer  = 100
		days        = 150
		tailBatches = 600
		wantHistory = 64 << 20
	)
	obs := make([]Observation, batch)
	submit := func(i int) {
		for j := range obs {
			obs[j] = Observation{Task: 0, User: 0, Value: float64(i + j)}
		}
		if err := s.SubmitObservations(obs...); err != nil {
			t.Fatal(err)
		}
	}
	for day := 0; day < days; day++ {
		for i := 0; i < batchesPer; i++ {
			submit(i)
		}
		if _, err := s.CloseTimeStep(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tailBatches; i++ {
		submit(i)
	}
	history := s.DurabilityStats().WALBytes
	if history < wantHistory {
		t.Fatalf("WAL only %d bytes; the test needs >= %d to be meaningful", history, wantHistory)
	}
	// Close only the log, not the server: Server.Close would compact the
	// journal away and leave nothing to replay.
	if err := s.st.Load().journal.Close(); err != nil {
		t.Fatal(err)
	}
	s = nil

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	// Sample HeapAlloc while recovery replays the log. The recorded peak
	// is the maximum over the run of a short rolling-window *minimum*, not
	// the instantaneous maximum: on a single-P box the concurrent mark
	// phase can let the mutator overshoot the heap goal by a full
	// day-close working set for a few milliseconds, and an instantaneous
	// sampler turns that GC-pacing race into test flakes. A buffering
	// replay — what the bound exists to catch — holds O(history) live
	// across the whole replay, so it shows up in every window no matter
	// how the windows land.
	const window = 50 // ticks per window at 1ms/tick
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		winMin := uint64(1<<63 - 1)
		ticks := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc < winMin {
					winMin = ms.HeapAlloc
				}
				if ticks++; ticks >= window {
					if winMin > peak.Load() {
						peak.Store(winMin)
					}
					winMin = uint64(1<<63 - 1)
					ticks = 0
				}
			}
		}
	}()
	r, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	defer r.st.Load().journal.Close()

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	final := int64(after.HeapAlloc) - int64(base.HeapAlloc)
	if final < 0 {
		final = 0
	}
	peakGrowth := int64(peak.Load()) - int64(base.HeapAlloc)

	// The acceptance bound: peak recovery memory within 2x the final
	// state, plus fixed slack for GC headroom (the collector lets the
	// heap run to ~2x live between cycles) and replay scratch. The slack
	// stays far below the history size, so a buffering replay still
	// fails loudly.
	limit := 2*final + (16 << 20)
	if limit >= history/2 {
		t.Fatalf("bound %d is not meaningfully below history %d; grow the log", limit, history)
	}
	t.Logf("history=%dMiB final=%dMiB peak-growth=%dMiB limit=%dMiB",
		history>>20, final>>20, peakGrowth>>20, limit>>20)
	if peakGrowth > limit {
		t.Errorf("recovery peak heap growth %d bytes exceeds %d (2x final state %d + slack)",
			peakGrowth, limit, final)
	}
	// Referenced after the measurement, so the recovered state is live
	// heap when ReadMemStats runs above (otherwise the GC is free to
	// collect r and "final" measures nothing).
	n := r.st.Load().Counts().Observations
	if n != tailBatches*batch {
		t.Errorf("recovered backlog %d observations, want %d", n, tailBatches*batch)
	}
}
