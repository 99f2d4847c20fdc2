package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// ErrCompacted is returned by ReadCommitted when the requested cursor
// names records that TruncateThrough has already pruned. The records are
// not lost — pruning only happens once a snapshot covering them is
// durable — so the reader's recourse is to bootstrap from that snapshot.
var ErrCompacted = errors.New("wal: records compacted away; bootstrap from snapshot")

// advanceCommittedLocked moves the shipping frontier forward and wakes
// anyone parked in WaitCommitted. Called with syncMu held.
func (l *Log) advanceCommittedLocked(lsn uint64) {
	if lsn > l.committed {
		l.committed = lsn
		// The watch channel exists only while a poller is parked
		// (WaitCommitted allocates it on demand); with no followers the
		// commit fast path advances the frontier without allocating.
		if l.commitWatch != nil {
			close(l.commitWatch)
			l.commitWatch = nil
		}
	}
}

// CommittedLSN returns the shipping frontier: the highest LSN
// acknowledged to a committer per the sync policy. Records at or below
// this frontier may be read by ReadCommitted; records above it are
// buffered-only and invisible to readers.
func (l *Log) CommittedLSN() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.committed
}

// WaitCommitted blocks until the committed frontier exceeds after, the
// timeout elapses, or the log is closed, and returns the frontier at that
// moment. A zero or negative timeout polls without blocking. This is the
// long-poll primitive behind the replication log endpoint: a caught-up
// follower parks here instead of spinning.
func (l *Log) WaitCommitted(after uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		l.syncMu.Lock()
		c := l.committed
		sealed := l.commitSealed
		if c > after || sealed {
			l.syncMu.Unlock()
			return c
		}
		if l.commitWatch == nil {
			l.commitWatch = make(chan struct{})
		}
		ch := l.commitWatch
		l.syncMu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return c
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			l.syncMu.Lock()
			c = l.committed
			l.syncMu.Unlock()
			return c
		}
	}
}

// ReadCommitted streams records with LSN in [from, CommittedLSN()] to fn,
// at most max records (max <= 0 means unlimited), and returns how many it
// delivered. It tolerates a live tail: the segment list and per-segment
// record counts are captured under the log's mutex, so a record that is
// mid-write when the scan starts is simply not visible yet, and a
// half-written tail is never parsed. fn's payload slice is reused between
// calls — copy it to retain. An error from fn aborts the scan and is
// returned verbatim.
//
// If from names records that TruncateThrough already pruned (including a
// segment file vanishing mid-scan to a concurrent truncation), the read
// fails with ErrCompacted: the caller must restart from a snapshot.
func (l *Log) ReadCommitted(from uint64, max int, fn func(lsn uint64, payload []byte) error) (int, error) {
	if from == 0 {
		from = 1
	}
	limit := l.CommittedLSN()
	if limit == 0 || from > limit {
		return 0, nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	first := l.first
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()
	if first == 0 || from < first {
		// Records at or below the committed frontier exist only above
		// first: the prefix below it was pruned after being snapshotted.
		return 0, ErrCompacted
	}

	// Records with LSN >= from cannot live in a segment that precedes the
	// last segment whose firstLSN <= from: a segment's records all carry
	// LSNs below the next segment's firstLSN.
	start := 0
	for i := range segs {
		if segs[i].firstLSN <= from {
			start = i
		} else {
			break
		}
	}
	n := 0
	for si := start; si < len(segs); si++ {
		seg := segs[si]
		if seg.records == 0 {
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				// A concurrent TruncateThrough removed the segment. Pruning
				// only covers snapshotted prefixes, so if the scan had not
				// yet passed this segment the cursor is behind the latest
				// snapshot.
				if n == 0 {
					return 0, ErrCompacted
				}
				return n, nil
			}
			return n, fmt.Errorf("wal: read: %w", err)
		}
		r := &segmentReader{f: bufio.NewReaderSize(f, 64<<10)}
		for i := 0; i < seg.records; i++ {
			lsn, payload, rerr := r.next()
			if rerr != nil {
				f.Close()
				return n, fmt.Errorf("wal: read %s: %w", seg.path, rerr)
			}
			if lsn < from {
				continue
			}
			if lsn > limit {
				f.Close()
				return n, nil
			}
			if err := fn(lsn, payload); err != nil {
				f.Close()
				return n, err
			}
			n++
			if max > 0 && n >= max {
				f.Close()
				return n, nil
			}
		}
		f.Close()
	}
	return n, nil
}

// WriteFrame encodes one record to w in the exact on-disk frame format
// (length, CRC32C, LSN, version, payload) — the replication wire format
// is the WAL record format, so a follower can persist shipped frames
// byte-for-byte and a reader can validate them with the same checksums.
func WriteFrame(w io.Writer, lsn uint64, payload []byte) error {
	var header [headerSize]byte
	fillFrameHeader(&header, lsn, payload)
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// fillFrameHeader encodes the frame header for (lsn, payload) into hdr —
// the shared core of WriteFrame and the Log's append path, which passes
// the head of its Log-owned frame scratch.
func fillFrameHeader(hdr *[headerSize]byte, lsn uint64, payload []byte) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameOverhead+len(payload)))
	binary.BigEndian.PutUint64(hdr[8:16], lsn)
	hdr[16] = recordVersion
	crc := crc32.Update(0, castagnoli, hdr[8:headerSize])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(hdr[4:8], crc)
}

// FrameReader decodes a stream of frames produced by WriteFrame,
// validating length bounds, checksum, version, and LSN monotonicity.
type FrameReader struct {
	r segmentReader
}

// NewFrameReader reads frames from r. Frames must carry strictly
// increasing LSNs greater than after.
func NewFrameReader(r io.Reader, after uint64) *FrameReader {
	return &FrameReader{r: segmentReader{f: r, expectAfter: after}}
}

// Next decodes one frame. io.EOF means the stream ended cleanly at a
// frame boundary; any other error means a torn or corrupt frame. The
// payload slice is reused by the next call — copy it to retain.
func (fr *FrameReader) Next() (lsn uint64, payload []byte, err error) {
	lsn, payload, err = fr.r.next()
	if err != nil && err != io.EOF && !errors.Is(err, ErrUnknownVersion) {
		return 0, nil, fmt.Errorf("wal: bad frame: %w", err)
	}
	return lsn, payload, err
}
