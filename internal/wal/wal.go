// Package wal implements the append-only, segment-rotating write-ahead
// log behind the eta2 server's durable mode. Records are length-prefixed,
// CRC32C-checksummed, versioned, and stamped with a monotonically
// increasing log sequence number (LSN), so a reader can always tell a
// torn tail from valid data and a snapshot can name the exact prefix of
// the log it already covers.
//
// On-disk layout: a directory of segment files named
// wal-<firstLSN>.log. Each record is
//
//	offset  size  field
//	0       4     big-endian payload frame length = 9 + len(payload)
//	4       4     CRC32C (Castagnoli) over the frame (LSN .. payload)
//	8       8     big-endian LSN
//	16      1     record-format version (recordVersion)
//	17      n     opaque payload
//
// Only the active segment may end in zeros: appendAt keeps it zero-filled
// one window ahead of the write frontier, so a record lands inside the
// file size and its commit is a data-only flush. Sealing and Close trim
// the window: a sealed or cleanly closed segment is exactly its records.
//
// Open scans every segment in LSN order and truncates the log at the
// first torn or corrupt record (checksum mismatch, impossible length,
// short frame, or non-increasing LSN): the file is cut at the last valid
// record and any later segments are deleted. An all-zero tail is the
// window a killed process did not live to trim: cut, but not torn. A
// record written with an UNKNOWN format version is not corruption — a
// newer binary wrote the log — and a read error is not a torn tail: both
// fail Open and leave the files alone.
//
// The Log is safe for concurrent use. Appends are split into two halves:
// AppendBuffered assigns the LSN and writes the record into the OS page
// cache under the log's internal mutex (so LSN order always equals file
// order), and Commit waits for the record to reach stable storage.
// Commit implements group commit: the first waiter becomes the commit
// leader and issues a single data sync that covers every record buffered
// before it captured the write frontier. Under SyncAlways the leader first
// gathers: it waits until as many committers are inside Commit as when the
// previous sync finished, or until half that sync's own duration has
// passed, whichever comes first. So N closed-loop committers share each
// fsync instead of taking turns, a lone committer never waits, and a crowd
// that does not come back costs half an fsync time, once. Append is the two
// halves back to back and keeps the original one-call-per-record API.
//
// A failed sync is sticky: the kernel may have dropped the pages it could
// not write and will not report them again, so no later sync can vouch for
// them. Every later append, commit, sync and truncation returns the error.
// So is a failed segment creation or directory sync (SyncDir): a segment the
// directory does not durably name may vanish in a crash with its records.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// recordVersion is the on-disk record format version this package writes.
const recordVersion = 1

// headerSize is the fixed bytes before the payload: length + crc + lsn +
// version.
const headerSize = 4 + 4 + 8 + 1

// frameOverhead is the frame length beyond the payload itself (LSN +
// version bytes, the part covered by the length field together with the
// payload).
const frameOverhead = 8 + 1

// maxPayload bounds a single record so a corrupt length field cannot ask
// the reader to allocate gigabytes.
const maxPayload = 64 << 20

// window is how far ahead of the write frontier the active segment is
// zero-filled: only the commit after an extension syncs a changed size.
const window = 64 << 10

var zeros [window]byte

// ErrUnknownVersion is returned when a record carries a format version
// this build does not understand. Unlike corruption it is NOT truncated
// away: a newer binary wrote valid data we must not destroy.
var ErrUnknownVersion = errors.New("wal: record written by an unknown format version")

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log is closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when Append calls fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every record: no acknowledged write is ever
	// lost, at the cost of one fsync per mutation.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs lazily: an Append syncs only when SyncEvery has
	// elapsed since the previous sync. A crash loses at most the last
	// interval's records — replay still stops cleanly at the torn tail.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache. Replay correctness
	// is unaffected; only crash durability is.
	SyncNever
)

// Options configures Open.
type Options struct {
	// SegmentSize is the byte size at which the active segment is sealed
	// and a new one started (default 1 MiB). A single record larger than
	// SegmentSize still gets written — it just seals its segment early.
	SegmentSize int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the lazy-sync interval for SyncInterval (default 100ms).
	SyncEvery time.Duration
	// SyncDelay adds artificial latency to every fsync — a test seam
	// (eta2.DurabilityPolicy.FsyncDelay, whose only caller is the
	// durable-storm test; here, the gather tests and
	// BenchmarkWALGroupCommit) that the fault-injecting filesystem seam of
	// ROADMAP item 4 replaces. The delay is paid by the commit leader
	// outside all locks and counts in the sync's measured duration, so it
	// stretches the group-commit window and the gather's bound exactly like
	// a genuinely slow fsync would. Leave zero in production.
	SyncDelay time.Duration
	// NextLSNFloor, when non-zero, forces the next assigned LSN to be at
	// least this value. The server passes snapshotLSN+1 so fresh records
	// can never collide with LSNs a snapshot already covers, even if the
	// tail of the log was lost.
	NextLSNFloor uint64
}

// Stats describes the log's current shape.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int
	// Bytes is the total size of all live segments.
	Bytes int64
	// FirstLSN and LastLSN bound the records currently in the log
	// (both zero when the log holds no records).
	FirstLSN uint64
	LastLSN  uint64
	// TornBytes and DroppedSegments report what Open discarded while
	// truncating a torn tail (zero on a clean open).
	TornBytes       int64
	DroppedSegments int
}

type segment struct {
	path     string
	firstLSN uint64 // LSN the segment was opened at (records start here or later)
	lastLSN  uint64 // last LSN stored, 0 if empty
	size     int64
	records  int
}

// Log is an append-only write-ahead log over a directory of segments.
type Log struct {
	dir  string
	opts Options

	// mu guards the write path: segment bookkeeping, LSN assignment, and
	// the file writes themselves. It is held only for page-cache writes and
	// segment seals, never across a commit's fsync. Lock order: mu before
	// syncMu, never the reverse.
	mu       sync.Mutex
	segs     []segment // all live segments in LSN order; last is active
	active   *os.File
	datasync func() error // active's commit sync (newDataSync)
	filled   int64        // physical size of active: its records, then zeros
	next     uint64       // next LSN to assign
	first    uint64       // first LSN present, 0 if none
	closed   bool
	// writeErr is sticky: a partial record write we could not rewind, a
	// failed sync, or a failed segment creation or directory sync. Set only
	// by failLocked, with mu and syncMu both held, so either lock reads it.
	writeErr error
	// frame is appendAt's scratch, grown to the largest record seen: one
	// write per record (a torn record is a prefix of it), no allocation.
	frame []byte

	tornBytes   int64
	droppedSegs int

	// Group-commit state. syncMu orders commit leaders and guards the
	// durable frontier; it is never held across an fsync either — the
	// leader flag is what keeps followers parked while a sync is in
	// flight.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool   // a commit leader is gathering or its fsync is in flight
	durable  uint64 // highest LSN known to be on stable storage
	lastSync time.Time
	// The gather (SyncAlways). gen advances each time a leader stops
	// gathering: every caller in syncThrough then is covered by its
	// capture, so fresh, the callers in syncThrough that entered since, is
	// what the next leader can still gather (a covered follower not yet
	// awake must not count). crowd and took are the callers inside when the
	// last sync finished (those it covered and those fresh; after an
	// expired gather, only those who came) and its fsync's duration. A
	// gathering leader waits on syncCond; the arrival that completes its
	// crowd, gatherTimer and Close wake it.
	fresh       int
	gen         uint64
	crowd       int
	took        time.Duration
	gathering   bool
	gatherTimer *time.Timer

	// Replication shipping frontier: the highest LSN acknowledged to a
	// committer per the sync policy. Under SyncAlways it tracks durable;
	// under SyncInterval/SyncNever it can run ahead of durable, because a
	// record is acknowledged (and may be shipped to followers) as soon as
	// Commit returns. Guarded by syncMu; commitWatch is allocated lazily
	// by the first poller to park after an advance, and closed (then
	// nilled) each time the frontier moves — so the zero-follower commit
	// fast path never allocates.
	committed    uint64
	commitWatch  chan struct{}
	commitSealed bool // Close ran: the frontier will never advance again
}

// Open opens (or creates) the log in dir, validates every segment, and
// truncates the log at the first corrupt or partial record. The returned
// Log is positioned to append after the last valid record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = 1 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, next: 1}
	l.syncCond = sync.NewCond(&l.syncMu)
	// One timer per log, reset by each gather, so a commit allocates nothing.
	l.gatherTimer = time.AfterFunc(time.Hour, func() {
		l.syncMu.Lock()
		l.syncCond.Broadcast()
		l.syncMu.Unlock()
	})
	l.gatherTimer.Stop()

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		valid, torn, verr := l.scanSegment(&segs[i])
		if verr != nil {
			return nil, verr
		}
		if segs[i].lastLSN != 0 {
			if l.first == 0 {
				l.first = segs[i].firstLSN
			}
			l.next = segs[i].lastLSN + 1
		}
		// Cut the tail. All zeros is the window of a killed process: nothing
		// was lost, the log goes on. Anything else is a torn write, and
		// every later segment goes with it.
		if valid < segs[i].size {
			if err := os.Truncate(segs[i].path, valid); err != nil {
				return nil, fmt.Errorf("wal: truncate tail: %w", err)
			}
			segs[i].size = valid
		}
		l.segs = append(l.segs, segs[i])
		if torn == 0 {
			continue
		}
		l.tornBytes += torn
		for _, late := range segs[i+1:] {
			l.tornBytes += late.size
			l.droppedSegs++
			if err := os.Remove(late.path); err != nil {
				return nil, fmt.Errorf("wal: drop segment past torn tail: %w", err)
			}
		}
		break
	}
	// Every record that survived recovery was acknowledged before the
	// previous process exited (or was torn-truncated away above), so the
	// shipping frontier resumes at the recovered tail — before any LSN
	// floor bump, which names records that do NOT exist in this log.
	l.committed = l.next - 1
	if opts.NextLSNFloor > l.next {
		l.next = opts.NextLSNFloor
	}

	if len(l.segs) == 0 {
		if err := l.openSegment(); err != nil {
			return nil, err
		}
	} else {
		last := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen active segment: %w", err)
		}
		// The first append writes the window, so Open costs no write.
		l.active, l.datasync, l.filled = f, newDataSync(f), last.size
	}
	if l.tornBytes > 0 || l.droppedSegs > 0 {
		mTornBytes.Add(uint64(l.tornBytes))
		if err := syncDir(dir); err != nil {
			l.active.Close()
			return nil, err
		}
	}
	return l, nil
}

// listSegments returns the wal-*.log files in dir sorted by first LSN.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstLSN: lsn, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// scanSegment walks seg's records and fills in its lastLSN and record
// count. It returns the end offset of the last valid record and how many
// bytes past it are torn, counted through the segment's last non-zero
// byte (0 with valid < size: a zero tail). Corruption ends the scan; an
// unknown record version or a read error fails it.
func (l *Log) scanSegment(seg *segment) (valid, torn int64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := &segmentReader{f: f, expectAfter: l.next - 1}
	for err == nil {
		_, _, err = r.next()
	}
	seg.lastLSN, seg.records = r.lastLSN, r.records
	if err == io.EOF {
		return r.valid, 0, nil
	} else if err != errCorrupt {
		return 0, 0, fmt.Errorf("wal: scan %s at offset %d: %w", seg.path, r.valid, err)
	}
	// Everything before r.valid stands; search the rest backwards.
	buf := make([]byte, window)
	for end := seg.size; end > r.valid; end -= int64(len(buf)) {
		buf = buf[:min(int64(len(buf)), end-r.valid)]
		if _, err := f.ReadAt(buf, end-int64(len(buf))); err != nil {
			return 0, 0, fmt.Errorf("wal: scan %s: %w", seg.path, err)
		}
		if n := len(bytes.TrimRight(buf, "\x00")); n > 0 {
			return r.valid, end - int64(len(buf)) + int64(n) - r.valid, nil
		}
	}
	return r.valid, 0, nil
}

// segmentReader decodes records sequentially, tracking the end offset of
// the last fully valid record. It reads from any io.Reader so the decode
// path can be exercised on in-memory bytes (see wal_fuzz_test.go).
type segmentReader struct {
	f           io.Reader
	off         int64
	valid       int64
	lastLSN     uint64
	expectAfter uint64 // records must have LSN > this
	records     int
	header      [headerSize]byte
	buf         []byte
}

// errCorrupt marks a record that fails validation (the torn tail).
var errCorrupt = errors.New("wal: corrupt record")

// next decodes one record. io.EOF means a clean end; errCorrupt means the
// tail from r.valid onward is garbage; any other error is the reader's
// own (an EIO is not a torn tail) and nothing may be truncated on it.
func (r *segmentReader) next() (lsn uint64, payload []byte, err error) {
	hn, err := io.ReadFull(r.f, r.header[:])
	if err == io.ErrUnexpectedEOF { // torn header
		return 0, nil, errCorrupt
	} else if err != nil {
		return 0, nil, err
	}
	r.off += int64(hn)
	frameLen := binary.BigEndian.Uint32(r.header[0:4])
	if frameLen < frameOverhead || frameLen > frameOverhead+maxPayload {
		return 0, nil, errCorrupt
	}
	payloadLen := int(frameLen) - frameOverhead
	if cap(r.buf) < payloadLen {
		r.buf = make([]byte, payloadLen)
	}
	payload = r.buf[:payloadLen]
	if _, err := io.ReadFull(r.f, payload); err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, nil, errCorrupt // torn payload
	} else if err != nil {
		return 0, nil, err
	}
	r.off += int64(payloadLen)
	crc := crc32.Update(0, castagnoli, r.header[8:headerSize])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.BigEndian.Uint32(r.header[4:8]) {
		return 0, nil, errCorrupt
	}
	if v := r.header[16]; v != recordVersion {
		return 0, nil, fmt.Errorf("%w: version %d", ErrUnknownVersion, v)
	}
	lsn = binary.BigEndian.Uint64(r.header[8:16])
	if lsn <= r.expectAfter {
		return 0, nil, errCorrupt
	}
	r.expectAfter = lsn
	r.lastLSN = lsn
	r.valid = r.off
	r.records++
	return lsn, payload, nil
}

// segmentPath names the segment whose first record will carry lsn.
func (l *Log) segmentPath(lsn uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%020d.log", lsn))
}

// openSegment seals the active segment (if any) and starts a new one at
// the next LSN. Sealing trims the zero window and fsyncs before closing,
// so a sealed segment is exactly its records and every one is durable —
// the invariant the commit leader relies on when it finds its captured
// file already closed. Called with mu held.
func (l *Log) openSegment() error {
	if l.active != nil {
		if err := l.trimSync(); err != nil {
			return fmt.Errorf("wal: seal segment: %w", err)
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: seal segment: %w", err)
		}
		l.active = nil
		mRotations.Inc()
	}
	path := l.segmentPath(l.next)
	// Always a fresh file: a recycled one holds stale, valid records.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		l.failLocked(fmt.Errorf("wal: create segment: %w", err))
		return l.writeErr
	}
	l.active, l.datasync, l.filled = f, newDataSync(f), 0
	l.segs = append(l.segs, segment{path: path, firstLSN: l.next})
	if err := syncDir(l.dir); err != nil {
		l.failLocked(err)
		return l.writeErr
	}
	return nil
}

// trimSync cuts the zero window off the active segment and fsyncs it (a
// full fsync: the file just shrank). A failure is sticky: it returns the
// log's sticky error. Called with mu held.
func (l *Log) trimSync() error {
	l.filled = l.segs[len(l.segs)-1].size
	err := l.active.Truncate(l.filled)
	if err == nil {
		err = l.active.Sync()
	}
	if err != nil {
		l.failLocked(fmt.Errorf("wal: sync: %w", err))
		return l.writeErr
	}
	return nil
}

// failLocked makes err the log's sticky error unless it already has one:
// every later append, commit, sync and truncation returns it. Called with
// mu held; takes syncMu.
func (l *Log) failLocked(err error) {
	l.syncMu.Lock()
	if l.writeErr == nil {
		l.writeErr = err
	}
	l.syncMu.Unlock()
}

// Append writes one record and returns its LSN, fsyncing per the sync
// policy. It is AppendBuffered followed by Commit; callers that must not
// block on an fsync while holding their own locks use the two halves
// directly.
func (l *Log) Append(payload []byte) (uint64, error) {
	lsn, err := l.AppendBuffered(payload)
	if err != nil {
		return 0, err
	}
	if err := l.Commit(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendBuffered assigns the next LSN and writes the record into the OS
// page cache without waiting for stable storage. LSN order equals file
// order even under concurrency: both happen under the same mutex. The
// record is not durable until a later Commit/Sync covers its LSN.
func (l *Log) AppendBuffered(payload []byte) (uint64, error) {
	return l.appendAt(0, payload)
}

// AppendBufferedAt writes a record carrying a caller-supplied LSN instead
// of assigning the next one — the replication follower's entry point for
// persisting records shipped from a primary under their original LSNs.
// The LSN must be at least the log's next LSN (gaps are allowed: a
// follower that bootstrapped from a snapshot resumes past the records the
// snapshot covers); reusing an already-assigned LSN is refused.
func (l *Log) AppendBufferedAt(lsn uint64, payload []byte) error {
	if lsn == 0 {
		return fmt.Errorf("wal: AppendBufferedAt: lsn must be nonzero")
	}
	_, err := l.appendAt(lsn, payload)
	return err
}

// appendAt is the shared append body: at == 0 assigns the next LSN,
// otherwise the record is written under LSN at (which must be >= next).
func (l *Log) appendAt(at uint64, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.writeErr != nil {
		return 0, l.writeErr
	}
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds limit %d", len(payload), maxPayload)
	}
	if at != 0 && at < l.next {
		return 0, fmt.Errorf("wal: AppendBufferedAt: lsn %d already assigned (next is %d)", at, l.next)
	}
	active := &l.segs[len(l.segs)-1]
	recLen := int64(headerSize + len(payload))
	if active.size > 0 && active.size+recLen > l.opts.SegmentSize {
		if err := l.openSegment(); err != nil {
			return 0, err
		}
		active = &l.segs[len(l.segs)-1]
	}

	lsn := l.next
	if at != 0 {
		lsn = at
	}
	// Extend the zero window to the next multiple of its size, so the
	// record lands inside the file; the next commit's sync covers both.
	for end := active.size + recLen; l.filled < end; {
		fill := zeros[:window-l.filled%window]
		if _, err := l.active.WriteAt(fill, l.filled); err != nil {
			l.rewind(active)
			return 0, fmt.Errorf("wal: append: %w", err)
		}
		l.filled += int64(len(fill))
	}
	if int64(cap(l.frame)) < recLen {
		l.frame = make([]byte, recLen)
	}
	frame := l.frame[:recLen]
	fillFrameHeader((*[headerSize]byte)(frame), lsn, payload)
	copy(frame[headerSize:], payload)
	if _, err := l.active.WriteAt(frame, active.size); err != nil {
		l.rewind(active)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	active.size += recLen
	active.lastLSN = lsn
	active.records++
	mAppendRecords.Inc()
	mAppendBytes.Add(uint64(recLen))
	if l.first == 0 {
		l.first = lsn
	}
	l.next = lsn + 1
	return lsn, nil
}

// rewind cuts a partially written record (and the window with it) back
// off the active segment so the next append starts at a clean record
// boundary. If the cut fails the log is poisoned: later appends would
// land after garbage bytes and be unreachable to recovery, so they must
// be refused. Called with mu held.
func (l *Log) rewind(active *segment) {
	l.filled = active.size
	if err := l.active.Truncate(active.size); err != nil {
		l.failLocked(fmt.Errorf("wal: unreadable tail after failed append: %w", err))
	}
}

// Commit blocks until the record at lsn is durable per the sync policy:
// SyncNever returns immediately, SyncInterval syncs only when the
// interval has elapsed, SyncAlways always waits for stable storage.
func (l *Log) Commit(lsn uint64) error {
	_, err := l.CommitReported(lsn)
	return err
}

// CommitReported is Commit plus group-commit attribution: leader is true
// when this caller performed the batch fsync itself, false when it was
// covered by another caller's sync (or the policy required no sync).
// Tracing uses it to annotate the fsync-wait span without this package
// importing the trace layer.
func (l *Log) CommitReported(lsn uint64) (leader bool, err error) {
	if l.opts.Sync != SyncAlways {
		l.syncMu.Lock()
		due := l.opts.Sync == SyncInterval && time.Since(l.lastSync) >= l.opts.SyncEvery
		if err = l.writeErr; err == nil && !due {
			// Acknowledged without an fsync: the record may ship to
			// followers even though it is not yet on stable storage.
			l.advanceCommittedLocked(lsn)
		}
		l.syncMu.Unlock()
		if err != nil || !due {
			return false, err
		}
	}
	return l.syncThrough(lsn)
}

// syncThrough blocks until every record with LSN <= lsn is on stable
// storage. The group-commit core: a caller whose LSN is already covered
// returns immediately; while a leader gathers or its fsync is in flight,
// callers park; the first parked caller to wake uncovered becomes the next
// leader, and its single fsync covers the whole batch written in the
// meantime. Reports whether this caller was the leader that performed the
// fsync.
func (l *Log) syncThrough(lsn uint64) (leader bool, err error) {
	l.syncMu.Lock()
	gen := l.gen
	l.fresh++
	if l.gathering && l.fresh >= l.crowd {
		l.syncCond.Broadcast()
	}
	for l.durable < lsn && l.syncing {
		l.syncCond.Wait()
	}
	if l.writeErr != nil || l.durable >= lsn {
		if gen == l.gen {
			l.fresh--
		}
		err = l.writeErr
		l.syncMu.Unlock()
		return false, err
	}
	l.syncing = true
	expired := false
	if l.opts.Sync == SyncAlways && l.fresh < l.crowd {
		// Gather. A closed-loop committer comes back one round trip after
		// its acknowledgement; waiting w for it saves it the F-w it would
		// wait behind this sync (F, the sync's duration) and costs this
		// leader w, so the wait pays only while w < F/2. That is its bound,
		// with the last sync's duration for F. The start is taken before
		// the timer is armed, so its wake-up finds the bound passed.
		bound := l.took / 2
		l.gathering = true
		start := time.Now()
		l.gatherTimer.Reset(bound)
		for l.fresh < l.crowd && !l.commitSealed && time.Since(start) < bound {
			l.syncCond.Wait()
		}
		l.gatherTimer.Stop()
		l.gathering = false
		if l.fresh >= l.crowd {
			mGathersJoined.Inc()
		} else {
			expired = true
			mGathersExpired.Inc()
		}
	}
	came := l.fresh
	l.gen++
	l.fresh = 0
	l.syncMu.Unlock()

	// This goroutine is the commit leader. Capture the write frontier and
	// the active segment's sync, then run it outside both locks so
	// appenders keep writing the next batch behind the in-flight sync.
	l.mu.Lock()
	datasync := l.datasync
	frontier := l.next - 1
	closed := l.closed
	l.mu.Unlock()

	var took time.Duration
	if closed {
		err = ErrClosed
	} else {
		began := time.Now()
		if l.opts.SyncDelay > 0 {
			time.Sleep(l.opts.SyncDelay)
		}
		serr := datasync()
		took = time.Since(began)
		mFsyncs.Inc()
		mFsyncDur.Observe(took.Seconds())
		// os.ErrClosed means the segment was sealed (rotated) between the
		// capture and the sync — sealing itself fsyncs, so every record
		// the leader covers is already durable. Anything else is real and
		// sticky. A seal's fsync racing this one may have taken the error
		// this one would have seen; the seal holds mu until it has made its
		// failure sticky, so the leader reads the sticky error under mu.
		l.mu.Lock()
		if serr != nil && !errors.Is(serr, os.ErrClosed) {
			l.failLocked(fmt.Errorf("wal: sync: %w", serr))
		}
		err = l.writeErr
		l.mu.Unlock()
	}

	l.syncMu.Lock()
	if err == nil && frontier > l.durable {
		mBatchRecords.Observe(float64(frontier - l.durable))
		l.durable = frontier
		l.advanceCommittedLocked(frontier)
	}
	// The crowd: those this sync covered and those parked behind it. After
	// an expired gather, only those who came: a committer arriving during
	// the sync came too late to have been worth the wait.
	l.crowd, l.took = came, took
	if !expired {
		l.crowd += l.fresh
	}
	l.lastSync = time.Now()
	l.syncing = false
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return true, err
}

// Sync flushes every record written so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	frontier := l.next - 1
	l.mu.Unlock()
	_, err := l.syncThrough(frontier)
	return err
}

// Replay streams every record currently in the log, in LSN order, to fn.
// Open already truncated any torn tail, so replay sees only valid
// records; fn returning an error aborts the replay with that error.
// Replay holds the log's mutex for its whole duration, excluding
// concurrent appends (it is normally called once, at startup, before any
// concurrency exists).
func (l *Log) Replay(fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var prev uint64
	for _, seg := range l.segs {
		if seg.records == 0 {
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		r := &segmentReader{f: f, expectAfter: prev}
		for i := 0; i < seg.records; i++ {
			lsn, payload, err := r.next()
			if err != nil {
				f.Close()
				return fmt.Errorf("wal: replay %s: %w", seg.path, err)
			}
			if err := fn(lsn, payload); err != nil {
				f.Close()
				return err
			}
			mReplayed.Inc()
			prev = lsn
		}
		f.Close()
	}
	return nil
}

// TruncateThrough removes every record with LSN <= lsn from the log —
// the compaction step after a snapshot covering that prefix is durably
// on disk. The active segment is sealed first if it holds covered
// records, so the log always ends with a live segment ready for appends.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.writeErr != nil {
		return l.writeErr
	}
	active := &l.segs[len(l.segs)-1]
	if active.records > 0 && active.lastLSN <= lsn {
		if err := l.openSegment(); err != nil {
			return err
		}
	}
	kept := l.segs[:0]
	removed := false
	for i := range l.segs {
		s := l.segs[i]
		sealed := i < len(l.segs)-1
		if sealed && (s.records == 0 || s.lastLSN <= lsn) {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	l.first = 0
	for _, s := range l.segs {
		if s.records > 0 {
			l.first = s.firstLSN
			break
		}
	}
	if removed {
		if err := syncDir(l.dir); err != nil {
			l.failLocked(err)
			return l.writeErr
		}
	}
	return nil
}

// Err returns the log's sticky error: nil while it can write, and after a
// failure that refuses every later append, commit, sync and truncation,
// that failure.
func (l *Log) Err() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.writeErr
}

// Stats reports the log's current shape.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:        len(l.segs),
		FirstLSN:        l.first,
		TornBytes:       l.tornBytes,
		DroppedSegments: l.droppedSegs,
	}
	if l.next > 1 && l.first != 0 {
		st.LastLSN = l.next - 1
	}
	for _, s := range l.segs {
		st.Bytes += s.size
	}
	return st
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	frontier := l.next - 1
	err := l.trimSync()
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.closed = true
	l.mu.Unlock()

	// Publish the final durable frontier and wake any parked committers;
	// they either find their LSN covered or fail with ErrClosed.
	l.syncMu.Lock()
	if err == nil && frontier > l.durable {
		l.durable = frontier
		l.advanceCommittedLocked(frontier)
	}
	// Seal the shipping frontier and wake pollers parked in WaitCommitted
	// so they observe the final value instead of waiting out their timeout.
	l.commitSealed = true
	if l.commitWatch != nil {
		close(l.commitWatch)
		l.commitWatch = nil
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return err
}

// syncDir is every directory sync of the log; tests swap it to inject a
// failure.
var syncDir = SyncDir

// SyncDir fsyncs directory dir, so that a file created, renamed or removed
// in it survives a crash. A filesystem that cannot sync a directory at all
// (EINVAL, ENOTSUP) is not an error: its directory operations are as durable
// as it makes them.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close() // opened read-only: nothing to flush
	}
	if err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("wal: sync directory: %w", err)
	}
	return nil
}
