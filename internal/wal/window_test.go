package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
)

// killedCopy copies a live log's directory the way a SIGKILL leaves it:
// whatever the process wrote, window included, and nothing Close does.
func killedCopy(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestKilledLogReopensClean: a process killed between commits leaves
// valid records followed by the zero window. That is not a torn tail:
// nothing was lost, nothing is counted, and the log goes on.
func TestKilledLogReopensClean(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []string{"alpha", "beta", "gamma"}
	appendAll(t, l, want...)
	killed := killedCopy(t, dir)
	fi, err := os.Stat(lastSegment(t, killed))
	if err != nil {
		t.Fatal(err)
	}
	if logical := l.Stats().Bytes; fi.Size() != window || logical >= window {
		t.Fatalf("live segment is %d bytes holding %d of records, want one %d-byte window", fi.Size(), logical, window)
	}

	tornBefore := mTornBytes.Value()
	l2, err := Open(killed, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TornBytes != 0 || st.DroppedSegments != 0 || st.Bytes != l.Stats().Bytes {
		t.Errorf("stats after a killed-process reopen: %+v", st)
	}
	if got := mTornBytes.Value(); got != tornBefore {
		t.Errorf("torn-bytes counter moved by %d on a zero tail", got-tornBefore)
	}
	if _, payloads := replayAll(t, l2); fmt.Sprint(payloads) != fmt.Sprint(want) {
		t.Errorf("recovered %q, want %q", payloads, want)
	}
	if lsns := appendAll(t, l2, "delta"); lsns[0] != 4 {
		t.Errorf("lsn after reopen = %d, want 4", lsns[0])
	}
	if _, payloads := replayAll(t, l2); len(payloads) != 4 || payloads[3] != "delta" {
		t.Errorf("after appending to the reopened log: %q", payloads)
	}
}

// TestTornRecordInsideWindow: a write torn inside the window leaves half
// a record and then zeros. The half record is torn, the zeros are not.
func TestTornRecordInsideWindow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "alpha", "beta")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	half := encodeFrame(3, []byte("gamma-gamma-gamma"))
	half = half[:len(half)/2+1]
	if half[len(half)-1] == 0 {
		t.Fatal("pick a half record that ends in a non-zero byte")
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data = append(append(data, half...), make([]byte, window-len(data)-len(half))...)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.TornBytes != int64(len(half)) {
		t.Errorf("torn bytes %d, want the half record's %d", st.TornBytes, len(half))
	}
	if _, payloads := replayAll(t, l2); fmt.Sprint(payloads) != fmt.Sprint([]string{"alpha", "beta"}) {
		t.Errorf("recovered %q", payloads)
	}
}

// TestOnlyActiveSegmentEndsInZeros pins the on-disk contract: after every
// append — so after every rotation — each sealed segment's file is
// exactly its records, and after Close so is the last one.
func TestOnlyActiveSegmentEndsInZeros(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, closed bool) {
		t.Helper()
		l.mu.Lock()
		defer l.mu.Unlock()
		for i, seg := range l.segs {
			fi, err := os.Stat(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if active := i == len(l.segs)-1 && !closed; active {
				if fi.Size() != l.filled || fi.Size() < seg.size {
					t.Fatalf("%s: active segment is %d bytes, filled %d, records %d", when, fi.Size(), l.filled, seg.size)
				}
			} else if fi.Size() != seg.size {
				t.Fatalf("%s: %s is %d bytes, its records are %d", when, filepath.Base(seg.path), fi.Size(), seg.size)
			}
		}
	}
	for i := 0; i < 40; i++ {
		appendAll(t, l, fmt.Sprintf("payload-%02d-%s", i, bytes.Repeat([]byte("x"), i*3)))
		check(fmt.Sprintf("append %d", i), false)
	}
	if n := l.Stats().Segments; n < 5 {
		t.Fatalf("only %d segments; the loop did not rotate", n)
	}
	if err := l.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	check("after TruncateThrough", false)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close", true)
}

// TestReadErrorIsNotTornTail: only a short read is a torn tail. Any other
// error from the reader must surface as itself, mid-header or mid-payload,
// so no caller truncates a healthy log because the disk hiccuped.
func TestReadErrorIsNotTornTail(t *testing.T) {
	eio := errors.New("injected EIO")
	rec1 := encodeFrame(1, []byte("first"))
	rec2 := encodeFrame(2, []byte("second payload"))
	for _, tc := range []struct {
		name string
		keep int // bytes of rec2 delivered before the error
	}{
		{"mid-header", headerSize / 2},
		{"at-payload", headerSize},
		{"mid-payload", headerSize + 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := func() io.Reader {
				good := append(append([]byte{}, rec1...), rec2[:tc.keep]...)
				return io.MultiReader(bytes.NewReader(good), iotest.ErrReader(eio))
			}
			r := &segmentReader{f: stream()}
			if lsn, _, err := r.next(); err != nil || lsn != 1 {
				t.Fatalf("first record: lsn %d, err %v", lsn, err)
			}
			if _, _, err := r.next(); !errors.Is(err, eio) || errors.Is(err, errCorrupt) {
				t.Errorf("segmentReader.next = %v, want the reader's error", err)
			}
			if r.valid != int64(len(rec1)) || r.records != 1 {
				t.Errorf("valid %d records %d after the failed read", r.valid, r.records)
			}
			fr := NewFrameReader(stream(), 0)
			if _, _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := fr.Next(); !errors.Is(err, eio) {
				t.Errorf("FrameReader.Next = %v, want it to wrap the reader's error", err)
			}

			// The same bytes ending in a plain EOF are a torn tail.
			torn := &segmentReader{f: bytes.NewReader(append(append([]byte{}, rec1...), rec2[:tc.keep]...))}
			torn.next()
			if _, _, err := torn.next(); err != errCorrupt {
				t.Errorf("short read = %v, want errCorrupt", err)
			}
		})
	}
}

// TestDataSyncOnClosedSegment: the commit leader tells "sealed under me,
// so already durable" from a real failure by os.ErrClosed.
func TestDataSyncOnClosedSegment(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "seg"))
	if err != nil {
		t.Fatal(err)
	}
	datasync := newDataSync(f)
	if err := datasync(); err != nil {
		t.Fatalf("sync on an open file: %v", err)
	}
	f.Close()
	if err := datasync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("sync on a closed file = %v, want os.ErrClosed", err)
	}
}
