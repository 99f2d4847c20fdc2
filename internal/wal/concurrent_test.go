package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// concurrentAppend hammers the log with writers goroutines, each
// appending perWriter records whose payloads encode the writer and
// sequence number. It returns every acknowledged lsn -> payload pair.
func concurrentAppend(t *testing.T, l *Log, writers, perWriter int) map[uint64]string {
	t.Helper()
	var mu sync.Mutex
	acked := make(map[uint64]string, writers*perWriter)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := uint64(0)
			for i := 0; i < perWriter; i++ {
				p := fmt.Sprintf("writer-%d-record-%d", w, i)
				lsn, err := l.Append([]byte(p))
				if err != nil {
					errs <- err
					return
				}
				if lsn <= prev {
					errs <- fmt.Errorf("writer %d: lsn %d not above previous %d", w, lsn, prev)
					return
				}
				prev = lsn
				mu.Lock()
				acked[lsn] = p
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return acked
}

// TestConcurrentAppendGroupCommit checks the group-commit core contract:
// concurrent Append callers get strictly increasing, gap-free LSNs, and
// every acknowledged record survives a reopen with its exact payload.
func TestConcurrentAppendGroupCommit(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(fmt.Sprint(pol), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: pol, SegmentSize: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			const writers, perWriter = 8, 40
			acked := concurrentAppend(t, l, writers, perWriter)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			total := writers * perWriter
			if len(acked) != total {
				t.Fatalf("%d distinct LSNs for %d appends", len(acked), total)
			}
			for lsn := uint64(1); lsn <= uint64(total); lsn++ {
				if _, ok := acked[lsn]; !ok {
					t.Fatalf("LSN sequence has a gap at %d", lsn)
				}
			}

			l2, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			seen := 0
			prev := uint64(0)
			err = l2.Replay(func(lsn uint64, payload []byte) error {
				if lsn <= prev {
					return fmt.Errorf("replay lsn %d after %d", lsn, prev)
				}
				prev = lsn
				if want := acked[lsn]; string(payload) != want {
					return fmt.Errorf("lsn %d: payload %q, want %q", lsn, payload, want)
				}
				seen++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != total {
				t.Fatalf("replayed %d records, acknowledged %d", seen, total)
			}
		})
	}
}

// TestConcurrentAppendDurableWithoutClose reopens the directory without a
// clean Close: with SyncAlways every acknowledged record must already be
// on disk — group commit must never acknowledge before its batch's fsync.
func TestConcurrentAppendDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways, SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	acked := concurrentAppend(t, l, 8, 25)
	// No Close: simulate the process dying with the page cache intact.

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := make(map[uint64]string)
	if err := l2.Replay(func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for lsn, want := range acked {
		if got[lsn] != want {
			t.Fatalf("acknowledged record %d lost or mangled: %q != %q", lsn, got[lsn], want)
		}
	}
}

// TestConcurrentAppendTornBatchTail cuts bytes off the end of a
// concurrently written log: recovery must keep a contiguous LSN prefix —
// concurrent batching must never interleave record bytes, or the cut
// would corrupt records in the middle.
func TestConcurrentAppendTornBatchTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const total = 6 * 30
	concurrentAppend(t, l, 6, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final record's payload.
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	prev := uint64(0)
	count := 0
	if err := l2.Replay(func(lsn uint64, payload []byte) error {
		if lsn != prev+1 {
			return fmt.Errorf("replay jumped from %d to %d", prev, lsn)
		}
		prev = lsn
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != total-1 {
		t.Fatalf("recovered %d records, want exactly the %d before the torn tail", count, total-1)
	}
	// The log must keep accepting appends at the reused LSN.
	lsn, err := l2.Append([]byte("after-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(total) {
		t.Fatalf("post-recovery lsn = %d, want %d", lsn, total)
	}
}

// TestConcurrentSyncAndAppend interleaves explicit Sync calls (the
// compactor's path) with concurrent appenders to shake out leader/seal
// races under the race detector.
func TestConcurrentSyncAndAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: 1, SegmentSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
				l.Stats()
				l.NextLSN()
			}
		}
	}()
	concurrentAppend(t, l, 6, 40)
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// gatherCounts reads the fsync and gather counters (process-wide; the
// package's tests do not run in parallel).
func gatherCounts() (fsyncs, joined, expired uint64) {
	return mFsyncs.Value(), mGathersJoined.Value(), mGathersExpired.Value()
}

// slowDisk is a SyncAlways log whose fsyncs take at least 3 ms, longer
// than a closed-loop committer needs to come back.
func slowDisk(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{Sync: SyncAlways, SyncDelay: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// commitAsync buffers payload and commits it on its own goroutine.
func commitAsync(t *testing.T, l *Log, payload string) <-chan error {
	t.Helper()
	lsn, err := l.AppendBuffered([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Commit(lsn) }()
	return done
}

// TestGatherSharesFsyncs: two closed-loop committers share each fsync
// instead of taking turns (one fsync per record), and sharing acknowledges
// nothing early: every record is on disk without a Close.
func TestGatherSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l := slowDisk(t, dir)
	f0, _, _ := gatherCounts()
	acked := concurrentAppend(t, l, 2, 60)
	if n := mFsyncs.Value() - f0; n > 72 {
		t.Errorf("2 committers x 60 records took %d fsyncs, want <= 72", n)
	}
	// No Close: the process dies with the page cache intact.
	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsns, payloads := replayAll(t, l2)
	if len(lsns) != len(acked) {
		t.Fatalf("replayed %d records, acknowledged %d", len(lsns), len(acked))
	}
	for i, lsn := range lsns {
		if acked[lsn] != payloads[i] {
			t.Fatalf("lsn %d: replayed %q, acknowledged %q", lsn, payloads[i], acked[lsn])
		}
	}
}

// TestLoneCommitterNeverGathers: each sync of a single committer ends with
// one committer inside, so nobody is waited for.
func TestLoneCommitterNeverGathers(t *testing.T) {
	l := slowDisk(t, t.TempDir())
	defer l.Close()
	f0, j0, e0 := gatherCounts()
	for i := 0; i < 60; i++ {
		appendAll(t, l, fmt.Sprintf("record-%d", i))
	}
	if f, j, e := gatherCounts(); f-f0 != 60 || j != j0 || e != e0 {
		t.Errorf("60 records: %d fsyncs, %d joined and %d expired gathers; want 60, 0, 0", f-f0, j-j0, e-e0)
	}
}

// TestGatherStopsWhenCrowdLeaves: when the second committer stops, the
// first waits for it at most once (half a sync time), then never again.
func TestGatherStopsWhenCrowdLeaves(t *testing.T) {
	l := slowDisk(t, t.TempDir())
	defer l.Close()
	concurrentAppend(t, l, 2, 30)
	_, j0, e0 := gatherCounts()
	appendAll(t, l, "alone-0")
	_, _, e1 := gatherCounts()
	if e1-e0 > 1 {
		t.Errorf("first record alone: %d expired gathers, want at most 1", e1-e0)
	}
	for i := 1; i < 30; i++ {
		appendAll(t, l, fmt.Sprintf("alone-%d", i))
	}
	if _, j, e := gatherCounts(); j != j0 || e != e1 {
		t.Errorf("alone: %d joined, then %d expired gathers after the first record; want 0, 0", j-j0, e-e1)
	}
}

// TestExpiredGatherResetsCrowd: after a gather expires the crowd is who came
// during the wait. A committer that arrives during the sync after it came
// too late to have been worth waiting for, so its own commit does not gather.
func TestExpiredGatherResetsCrowd(t *testing.T) {
	l := slowDisk(t, t.TempDir())
	defer l.Close()
	appendAll(t, l, "first")
	l.syncMu.Lock()
	l.crowd = 2
	l.syncMu.Unlock()
	_, _, e0 := gatherCounts()
	leader := commitAsync(t, l, "leader")
	for mGathersExpired.Value() == e0 {
		time.Sleep(50 * time.Microsecond)
	}
	late := commitAsync(t, l, "late") // parks behind the leader's 3 ms sync
	for _, done := range []<-chan error{leader, late} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, _, e := gatherCounts(); e-e0 != 1 {
		t.Errorf("%d expired gathers, want 1: the late committer must not have waited for a crowd", e-e0)
	}
}

// TestGatherWaitsHalfASync: a crowd that does not come costs the leader half
// the last sync's duration. Waiting w for a committer saves it at most F-w
// behind a sync of F and costs the leader w, so a longer wait cannot pay.
func TestGatherWaitsHalfASync(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.AppendBuffered([]byte("alone"))
	if err != nil {
		t.Fatal(err)
	}
	l.syncMu.Lock()
	l.crowd, l.took = 2, 400*time.Millisecond
	l.syncMu.Unlock()
	start := time.Now()
	if err := l.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond || d > 350*time.Millisecond {
		t.Errorf("a gather after a 400 ms sync held the commit %v, want 200 ms and the fsync", d)
	}
}

// TestOnlySyncAlwaysGathers: SyncInterval batches by time and SyncNever
// never syncs a commit; neither waits for a crowd.
func TestOnlySyncAlwaysGathers(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncInterval, SyncNever} {
		l, err := Open(t.TempDir(), Options{Sync: pol, SyncEvery: 1, SyncDelay: 3 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		_, j0, e0 := gatherCounts()
		concurrentAppend(t, l, 2, 60)
		if _, j, e := gatherCounts(); j != j0 || e != e0 {
			t.Errorf("policy %d: %d joined and %d expired gathers, want none", pol, j-j0, e-e0)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseEndsGather: a leader gathering for a crowd that will never come
// returns as soon as the log closes, not when the gather would expire.
func TestCloseEndsGather(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendBuffered([]byte("gathering"))
	if err != nil {
		t.Fatal(err)
	}
	l.syncMu.Lock()
	l.crowd, l.took = 2, time.Hour
	l.syncMu.Unlock()
	done := make(chan error, 1)
	go func() { done <- l.Commit(lsn) }()
	for gathering := false; !gathering; {
		time.Sleep(time.Millisecond)
		l.syncMu.Lock()
		gathering = l.gathering
		l.syncMu.Unlock()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("Commit ended by Close = %v, want nil or ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Commit still gathering 5 s after Close")
	}
}

// TestFailedSyncIsSticky: after a failed fdatasync Linux marks the unwritten
// pages clean and reports the error once, so a retry would "succeed" for
// data that never reached the disk. Neither a follower parked behind the
// failed leader nor any later caller may be acknowledged.
func TestFailedSyncIsSticky(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "durable")

	inSync, release := make(chan struct{}), make(chan struct{})
	l.mu.Lock()
	realSync, failed := l.datasync, false
	l.datasync = func() error {
		if failed { // leaders run one at a time
			return realSync()
		}
		failed = true
		close(inSync)
		<-release
		return syscall.EIO
	}
	l.mu.Unlock()

	leader := commitAsync(t, l, "leader")
	<-inSync
	follower := commitAsync(t, l, "follower")
	for parked := false; !parked; {
		time.Sleep(time.Millisecond)
		l.syncMu.Lock()
		parked = l.fresh == 1
		l.syncMu.Unlock()
	}
	close(release)

	if err := <-leader; !errors.Is(err, syscall.EIO) {
		t.Errorf("leader's Commit = %v, want EIO", err)
	}
	if err := <-follower; !errors.Is(err, syscall.EIO) {
		t.Errorf("parked follower's Commit = %v, want EIO, not a retried sync's false success", err)
	}
	if _, err := l.Append([]byte("later")); !errors.Is(err, syscall.EIO) {
		t.Errorf("later Append = %v, want EIO", err)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Errorf("later Sync = %v, want EIO", err)
	}
	if err := l.TruncateThrough(1); !errors.Is(err, syscall.EIO) {
		t.Errorf("later TruncateThrough = %v, want EIO", err)
	}
}

// TestFailedDirSyncIsSticky: a segment whose creation the directory never
// synced may vanish in a crash with every record in it, and a truncation whose
// unlinks were never synced may come back. Either failure is the log's sticky
// error, like a failed data sync, so no record is acknowledged after it.
func TestFailedDirSyncIsSticky(t *testing.T) {
	for _, at := range []string{"segment creation", "truncation"} {
		t.Run(at, func(t *testing.T) {
			// SegmentSize 1 gives every record its own segment.
			l, err := Open(t.TempDir(), Options{Sync: SyncAlways, SegmentSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			appendAll(t, l, "first")
			if at == "truncation" {
				appendAll(t, l, "second")
			}
			syncDir = func(string) error { return syscall.EIO }
			defer func() { syncDir = SyncDir }()

			if at == "truncation" {
				if err := l.TruncateThrough(1); !errors.Is(err, syscall.EIO) {
					t.Errorf("TruncateThrough = %v, want EIO", err)
				}
			} else if _, err := l.Append([]byte("second")); !errors.Is(err, syscall.EIO) {
				t.Errorf("rotating Append = %v, want EIO", err)
			}
			if _, err := l.AppendBuffered([]byte("later")); !errors.Is(err, syscall.EIO) {
				t.Errorf("later AppendBuffered = %v, want EIO", err)
			}
			if err := l.Sync(); !errors.Is(err, syscall.EIO) {
				t.Errorf("later Sync = %v, want EIO", err)
			}
		})
	}
}
