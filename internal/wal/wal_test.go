package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"
)

func appendAll(t *testing.T, l *Log, payloads ...string) []uint64 {
	t.Helper()
	lsns := make([]uint64, 0, len(payloads))
	for _, p := range payloads {
		lsn, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

func replayAll(t *testing.T, l *Log) (lsns []uint64, payloads []string) {
	t.Helper()
	err := l.Replay(func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lsns, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "", "gamma with spaces", "\x00binary\xff"}
	lsns := appendAll(t, l, want...)
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Errorf("lsn[%d] = %d, want %d", i, lsn, i+1)
		}
	}
	gotLSNs, got := replayAll(t, l)
	if fmt.Sprint(gotLSNs) != fmt.Sprint(lsns) {
		t.Errorf("replay lsns %v, want %v", gotLSNs, lsns)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("replay payloads %q, want %q", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "one", "two")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsns := appendAll(t, l2, "three")
	if lsns[0] != 3 {
		t.Errorf("continued lsn = %d, want 3", lsns[0])
	}
	_, payloads := replayAll(t, l2)
	if fmt.Sprint(payloads) != fmt.Sprint([]string{"one", "two", "three"}) {
		t.Errorf("payloads = %q", payloads)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("payload-%02d", i)
		want = append(want, p)
	}
	appendAll(t, l, want...)
	st := l.Stats()
	if st.Segments < 5 {
		t.Errorf("only %d segments after 20 appends at 64-byte rotation", st.Segments)
	}
	if st.FirstLSN != 1 || st.LastLSN != 20 {
		t.Errorf("lsn range [%d, %d], want [1, 20]", st.FirstLSN, st.LastLSN)
	}
	_, payloads := replayAll(t, l)
	if fmt.Sprint(payloads) != fmt.Sprint(want) {
		t.Errorf("payloads across segments = %q", payloads)
	}
}

func TestOversizedRecordStillWritten(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := string(bytes.Repeat([]byte("x"), 500))
	appendAll(t, l, "small", big, "after")
	_, payloads := replayAll(t, l)
	if len(payloads) != 3 || payloads[1] != big {
		t.Fatalf("oversized record mangled (%d records)", len(payloads))
	}
}

// lastSegment returns the path of the live segment holding the newest
// records.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(matches)
	// Skip trailing empty segments (possible after TruncateThrough).
	for i := len(matches) - 1; i >= 0; i-- {
		if fi, err := os.Stat(matches[i]); err == nil && fi.Size() > 0 {
			return matches[i]
		}
	}
	return matches[len(matches)-1]
}

func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	// Build a 3-record log, then cut the file at every byte offset inside
	// the final record, in both crash shapes: recovery must always keep
	// exactly the first two records and position appends after them.
	build := func(dir string) (segPath string, prevSize int64) {
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, "first", "second")
		prevSize = l.Stats().Bytes
		appendAll(t, l, "third-record-payload")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return lastSegment(t, dir), prevSize
	}

	probe := t.TempDir()
	seg, prevSize := build(probe)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for cut := prevSize; cut < int64(len(full)); cut++ {
		// Zeros at the end of the cut cannot be told from the window, so
		// torn bytes run through the last non-zero byte in either shape.
		wantTorn := int64(len(bytes.TrimRight(full[prevSize:cut], "\x00")))
		// Both crash shapes: the file ends at the cut, or is zero from the
		// cut to the window's end (a write torn inside filled space).
		for _, end := range []int64{cut, window} {
			dir := t.TempDir()
			seg, prev := build(dir)
			if prev != prevSize {
				t.Fatalf("non-deterministic build: %d vs %d", prev, prevSize)
			}
			if err := os.Truncate(seg, cut); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, end); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatalf("cut %d of %d: %v", cut, end, err)
			}
			st := l.Stats()
			if st.TornBytes != wantTorn {
				t.Errorf("cut %d of %d: torn bytes %d, want %d", cut, end, st.TornBytes, wantTorn)
			}
			_, payloads := replayAll(t, l)
			if fmt.Sprint(payloads) != fmt.Sprint([]string{"first", "second"}) {
				t.Fatalf("cut %d of %d: recovered %q", cut, end, payloads)
			}
			// The log must accept appends again, with the torn LSN reused.
			lsns := appendAll(t, l, "fourth")
			if lsns[0] != 3 {
				t.Errorf("cut %d of %d: lsn after recovery = %d, want 3", cut, end, lsns[0])
			}
			l.Close()
		}
	}
}

func TestCorruptMiddleByteTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "first", "second")
	seg := lastSegment(t, dir)
	prevSize := l.Stats().Bytes
	appendAll(t, l, "third")
	l.Close()

	// Flip one byte inside the last record's payload.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[prevSize+headerSize] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, payloads := replayAll(t, l2)
	if fmt.Sprint(payloads) != fmt.Sprint([]string{"first", "second"}) {
		t.Errorf("recovered %q", payloads)
	}
}

func TestTornTailDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "record-one", "record-two", "record-three")
	if l.Stats().Segments < 3 {
		t.Fatalf("want >=3 segments, got %d", l.Stats().Segments)
	}
	l.Close()

	// Corrupt the FIRST segment: everything after it is unusable too.
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	sort.Strings(matches)
	data, _ := os.ReadFile(matches[0])
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Stats().DroppedSegments == 0 {
		t.Error("no segments dropped past the corruption")
	}
	_, payloads := replayAll(t, l2)
	if len(payloads) != 0 {
		t.Errorf("recovered %q past a corrupt first segment", payloads)
	}
}

// TestFailedTornTailDirSyncFailsOpen: the segments dropped past a torn
// tail may come back in a crash unless the directory is synced, so Open
// fails when that sync does instead of appending after them.
func TestFailedTornTailDirSyncFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "record-one", "record-two", "record-three")
	l.Close()
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	sort.Strings(matches)
	data, _ := os.ReadFile(matches[0])
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	syncDir = func(string) error { return syscall.EIO }
	defer func() { syncDir = SyncDir }()
	if l2, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32}); !errors.Is(err, syscall.EIO) {
		if err == nil {
			l2.Close()
		}
		t.Fatalf("Open after torn-tail repair with a failing directory sync = %v, want EIO", err)
	}
}

func TestUnknownRecordVersionIsHardError(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft a record with a valid checksum but a future version byte:
	// this is data from a newer binary, not corruption, and must not be
	// silently truncated away.
	payload := []byte("future data")
	frame := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(frameOverhead+len(payload)))
	binary.BigEndian.PutUint64(frame[8:16], 1)
	frame[16] = recordVersion + 1
	copy(frame[headerSize:], payload)
	crc := crc32.Update(0, castagnoli, frame[8:headerSize])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(frame[4:8], crc)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1)), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("Open = %v, want ErrUnknownVersion", err)
	}
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "record-one", "record-two", "record-three", "record-four")
	if err := l.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if _, payloads := replayAll(t, l); len(payloads) != 0 {
		t.Errorf("records survived full truncation: %q", payloads)
	}
	// New appends continue the LSN sequence and survive a reopen.
	lsns := appendAll(t, l, "record-five")
	if lsns[0] != 5 {
		t.Errorf("post-truncate lsn = %d, want 5", lsns[0])
	}
	l.Close()
	l2, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	gotLSNs, payloads := replayAll(t, l2)
	if fmt.Sprint(payloads) != fmt.Sprint([]string{"record-five"}) || gotLSNs[0] != 5 {
		t.Errorf("after reopen: lsns %v payloads %q", gotLSNs, payloads)
	}
}

func TestTruncateThroughKeepsNewerRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "record-one", "record-two", "record-three")
	if err := l.TruncateThrough(2); err != nil {
		t.Fatal(err)
	}
	gotLSNs, payloads := replayAll(t, l)
	if fmt.Sprint(payloads) != fmt.Sprint([]string{"record-three"}) {
		t.Errorf("payloads after partial truncate = %q (lsns %v)", payloads, gotLSNs)
	}
}

func TestNextLSNFloor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, NextLSNFloor: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsns := appendAll(t, l, "first-after-snapshot")
	if lsns[0] != 41 {
		t.Errorf("lsn = %d, want 41", lsns[0])
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: pol, SyncEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, "a", "b", "c")
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close = %v", err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Replay after close = %v", err)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-garbage.log"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "works")
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}
