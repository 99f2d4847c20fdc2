package eta2

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eta2/internal/obs"
	"eta2/internal/rcu"
	"eta2/internal/state"
	"eta2/internal/trace"
	"eta2/internal/wal"
)

// This file implements the server's durable mode: every mutation is
// appended to a write-ahead log (internal/wal) before it is applied, and
// startup recovery rebuilds the exact pre-crash state by loading the
// latest snapshot and replaying the log tail. Replay is deterministic —
// every mutation the server performs is a pure function of its inputs
// and the current state (the parallel hot paths are bit-identical for
// every worker count, see DESIGN.md §8) — so a recovered server is
// bit-identical to one that never crashed.
//
// Journal ordering: a mutation is prepared (validated, read-only), journaled
// (buffered write, LSN assigned), then applied — all in one Write of the state
// cell, so journal order equals apply order, and a failed journal write aborts
// before anything is applied. The fsync wait (journalCommit) runs after the
// Write returns: the WAL group-commits concurrent callers into one flush,
// and a caller gets a nil error only once its record is durable per the fsync
// policy, so a crash loses exactly the mutations never acknowledged.

// durabilityConfig is the configured-but-not-yet-opened durable mode.
type durabilityConfig struct {
	dir    string
	policy DurabilityPolicy
}

// WithDurability enables the durable mode: every mutation is journaled to
// a write-ahead log under dir, snapshots compact the log, and NewServer
// recovers the full pre-crash state from dir on the next start. The zero
// DurabilityPolicy is valid and means fsync-always with default segment
// and compaction sizes.
func WithDurability(dir string, policy DurabilityPolicy) Option {
	return func(c *config) error {
		if dir == "" {
			return errors.New("eta2: durability requires a data directory")
		}
		if err := policy.validate(); err != nil {
			return err
		}
		policy.applyDefaults()
		c.durable = &durabilityConfig{dir: dir, policy: policy}
		return nil
	}
}

func (p FsyncPolicy) walSync() wal.SyncPolicy {
	switch p {
	case FsyncInterval:
		return wal.SyncInterval
	case FsyncNever:
		return wal.SyncNever
	default:
		return wal.SyncAlways
	}
}

func (p *DurabilityPolicy) validate() error {
	switch p.Fsync {
	case "", FsyncAlways, FsyncInterval, FsyncNever:
		return nil
	}
	return fmt.Errorf("eta2: unknown fsync policy %q (want %q, %q or %q)",
		p.Fsync, FsyncAlways, FsyncInterval, FsyncNever)
}

func (p *DurabilityPolicy) applyDefaults() {
	if p.Fsync == "" {
		p.Fsync = FsyncAlways
	}
	if p.FsyncEvery <= 0 {
		p.FsyncEvery = 100 * time.Millisecond
	}
	if p.CompactAt == 0 {
		p.CompactAt = 8 << 20
	}
	if p.SegmentSize <= 0 {
		p.SegmentSize = 1 << 20
	}
}

// snapshotFile is one snapshot-<lsn>.bin in the data directory.
type snapshotFile struct {
	path string
	lsn  uint64
}

// listSnapshots returns the snapshot files in dir, newest (highest LSN)
// first.
func listSnapshots(dir string) ([]snapshotFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("eta2: %w", err)
	}
	var snaps []snapshotFile
	for _, e := range entries {
		name := e.Name()
		body, ok := strings.CutSuffix(name, ".bin")
		if !ok || !strings.HasPrefix(body, "snapshot-") {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimPrefix(body, "snapshot-"), 10, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapshotFile{path: filepath.Join(dir, name), lsn: lsn})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn > snaps[j].lsn })
	return snaps, nil
}

// openDurable is the one way a data directory becomes a live node, in
// either role: load the newest readable snapshot-<lsn>.bin, replay the WAL
// records past it (the wal package already truncated any torn tail), each
// extending the recovered state by exactly one LSN, then attach the log as
// the journal. What this build did not write is refused with ErrBadState
// naming the artifact, never skipped. The role decides who writes the
// journal from here on — a primary's own mutations, or a follower's pull
// loop feeding it the primary's records verbatim (follower.go).
func openDurable(cfg config, opts []Option, dir string, policy DurabilityPolicy, role serverRole, primary string) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eta2: %w", err)
	}

	// A crash between installSnapshot's create and rename leaves a
	// snapshot-<lsn>.tmp that listSnapshots skips; nothing is writing one
	// while the directory is being opened, so reclaim them here.
	stale, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.tmp")) // fixed pattern: cannot fail
	for _, path := range stale {
		_ = os.Remove(path)
	}
	if legacy, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.json")); len(legacy) > 0 {
		return nil, fmt.Errorf("%w: %s is a JSON snapshot, which this build does not read; open the directory with the last build that does (revision a9c3902, PR 17) and POST /v1/admin/compact to rewrite it as snapshot-<lsn>.bin",
			ErrBadState, legacy[0])
	}

	var s *Server
	var snapLSN uint64
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for _, sn := range snaps {
		restored, err := loadSnapshotFile(sn.path, opts)
		if err != nil {
			if errors.Is(err, ErrBadState) {
				// A snapshot another build wrote (a different codec or
				// state version) must fail loudly, not silently fall back
				// to stale state.
				return nil, fmt.Errorf("%s: %w", sn.path, err)
			}
			// Unreadable/garbage snapshot: fall back to the next older one
			// (the compactor keeps the previous snapshot until the new one
			// is durably renamed, so an older one normally exists). If none
			// does, the contiguity check below refuses the orphaned tail.
			continue
		}
		s, snapLSN = restored, sn.lsn
		break
	}
	if s == nil {
		if s, err = newServer(cfg); err != nil {
			return nil, err
		}
	}

	wlog, err := wal.Open(dir, wal.Options{
		SegmentSize:  policy.SegmentSize,
		Sync:         policy.Fsync.walSync(),
		SyncEvery:    policy.FsyncEvery,
		SyncDelay:    policy.FsyncDelay,
		NextLSNFloor: snapLSN + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("eta2: %w", err)
	}
	last := snapLSN // the recovered state's frontier
	replayErr := wlog.Replay(func(lsn uint64, payload []byte) error {
		if lsn <= snapLSN {
			return nil // already covered by the snapshot
		}
		// journalShipped's invariant: a lost or unreadable snapshot must not
		// become a different history replayed from the middle of the log.
		if lsn != last+1 {
			return fmt.Errorf("%w: journal record %d does not follow recovered state at %d", ErrBadState, lsn, last)
		}
		ev, err := state.DecodeEvent(payload)
		if err != nil {
			return fmt.Errorf("eta2: decode journal record %d: %w", lsn, err)
		}
		if err := s.update(func(tx *rcu.Tx[serverState]) error { return s.applyEvent(tx, lsn, ev) }); err != nil {
			return fmt.Errorf("eta2: replay journal record %d (%s): %w", lsn, ev.Kind, err)
		}
		last = lsn
		return nil
	})
	if replayErr != nil {
		wlog.Close()
		return nil, replayErr
	}

	// The journal attaches only after replay, so replayed mutations are
	// never re-journaled; the publish shows the lock-free query surface the
	// attached journal, the role and the recovered LSN frontier.
	s.journalPolicy = policy // not yet shared
	return s, s.update(func(tx *rcu.Tx[serverState]) error {
		tx.W.snapLSN, tx.W.lastLSN = snapLSN, last
		tx.W.journal, tx.W.journalDir = wlog, dir
		tx.W.role, tx.W.primaryAddr = role, primary
		return nil
	})
}

// loadSnapshotFile restores a server from one snapshot file, applying the
// caller's options on top (exactly like LoadServer).
func loadSnapshotFile(path string, opts []Option) (*Server, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("eta2: %w", err)
	}
	defer f.Close()
	return LoadServer(f, opts...)
}

// applyEvent is the single replay entry, for startup recovery and for every
// record a follower applies: the State replays the record through the methods
// the public mutations run (minus their follower write gate). Its caller runs
// it as one Write, which publishes the record's state labelled with its LSN,
// so a published state — what Compact, SaveStateBinary and a replication
// snapshot encode — is labelled with exactly the LSN it contains.
func (s *Server) applyEvent(tx *rcu.Tx[serverState], lsn uint64, ev state.Event) error {
	if err := tx.W.Replay(lsn, ev, s.cfg.parallelism); err != nil {
		return err
	}
	tx.W.lastLSN = lsn
	switch ev.Kind {
	case state.EventObservations:
		mObsAccepted.Add(uint64(len(ev.Observations)))
	case state.EventCloseStep:
		mStepsClosed.Inc()
		s.compactIfOwed(tx)
	}
	return nil
}

// obsEventPool recycles the SubmitObservations hot path's scratch: the
// day-stamped copy of a batch and its encoded record. Steady-state submits
// reuse retained capacity instead of allocating per call. The wrapper struct
// keeps Put/Get from re-boxing the slice headers on every cycle.
var obsEventPool = sync.Pool{New: func() any { return new(obsEventBuf) }}

type obsEventBuf struct {
	obs []Observation
	b   []byte
}

// encode stamps a copy of obs with day and encodes its observations record.
func (eb *obsEventBuf) encode(obs []Observation, day int) {
	eb.obs = append(eb.obs[:0], obs...)
	for i := range eb.obs {
		eb.obs[i].Day = day
	}
	eb.b = state.EncodeEvent(eb.b[:0], state.Event{Kind: state.EventObservations, Observations: eb.obs})
}

// journaled finishes a live mutation's state.Append: a failed append fails
// the node (journalFailed), and a record the journal took under lsn stamps the
// frontier, so the state the caller's Write publishes is labelled with it.
// The Write orders the append (so LSN order equals apply order), and
// journalCommit waits on lsn after the Write returns.
func journaled(tx *rcu.Tx[serverState], lsn uint64, err error) error {
	if err != nil {
		return journalFailed(tx.W.journal, "append", err)
	}
	if tx.W.journal != nil {
		tx.W.lastLSN = lsn
	}
	return nil
}

// journalShipped is a follower's half of journal-before-apply: the record
// the primary shipped under lsn is appended to the local journal verbatim
// — same LSN, same bytes — and applyEvent(tx, lsn, ...) follows in the same
// Write. The record must extend the applied frontier by exactly one;
// anything else is a hole in the stream (errLSNGap), answered by a snapshot
// bootstrap. A failed append fails the node as a live mutation's does.
func (s *Server) journalShipped(tx *rcu.Tx[serverState], lsn uint64, payload []byte) error {
	if tx.W.journal == nil || tx.W.role != roleFollower {
		return ErrNotDurable
	}
	if lsn != tx.W.lastLSN+1 {
		return errLSNGap
	}
	if err := tx.W.journal.AppendBufferedAt(lsn, payload); err != nil {
		return journalFailed(tx.W.journal, "append", err)
	}
	return nil
}

// journalCommit blocks until the record at lsn is durable per the fsync
// policy, then ends sp — the caller's open fsync-wait span, nil on
// untraced calls — annotated with whether this caller led the group
// commit's fsync or was covered by another caller's flush. Called with no
// server lock held: concurrent committers are batched by the WAL's group
// commit into a single fsync, and the journal is read from the published
// snapshot, so the wait involves no server lock at all. An LSN of 0
// (in-memory server) is a no-op, and so is a journal detached by a
// concurrent Close, which syncs the log on its way out.
func (s *Server) journalCommit(lsn uint64, sp *trace.Span) error {
	defer sp.End()
	j := s.st.Load().journal
	if lsn == 0 || j == nil {
		return nil
	}
	leader, err := j.CommitReported(lsn)
	if leader {
		sp.Annotate("role=leader")
	} else {
		sp.Annotate("role=follower")
	}
	if err != nil {
		return journalFailed(j, "commit", err)
	}
	return nil
}

// compactIfOwed spawns one background compaction cycle if the log has
// outgrown the policy threshold, none is in flight and the server is not
// closing. Called inside the Write of every closed step, in either role; it
// only reads the log's size, flips a flag and starts a goroutine — the
// compaction itself runs off the write path (see backgroundCompact), so
// closing a step never pays the snapshot encode or its fsyncs.
func (s *Server) compactIfOwed(tx *rcu.Tx[serverState]) {
	if !s.compactionOwed(&tx.W) || s.closing.Load() || !s.compacting.CompareAndSwap(false, true) {
		return
	}
	//eta2:replaypurity-ok compaction rewrites durable files only, from a published state labelled with exactly the LSN it contains, so applied state never observes it; startup replay runs with no journal attached and never trips the threshold
	go s.backgroundCompact()
}

// ErrNotDurable is returned by durability operations on a server built
// without WithDurability.
var ErrNotDurable = errors.New("eta2: server has no durable data directory")

// ErrJournalFailed wraps a failed journal append, commit or sync: the disk,
// not the request, is at fault, and the mutation was not acknowledged.
var ErrJournalFailed = errors.New("eta2: journal failed")

// journalFailed wraps err, the failure of journal operation op, in
// ErrJournalFailed. When it left j refusing every later write (the WAL's
// sticky error), the node has failed: eta2_server_journal_failed reads 1,
// and DurabilityStats carries the error, until the process restarts.
func journalFailed(j *wal.Log, op string, err error) error {
	if j.Err() != nil {
		mJournalFailed.Set(1)
	}
	return fmt.Errorf("%w: %s: %w", ErrJournalFailed, op, err)
}

// ErrClosed is returned by every mutation once Close has begun: its records
// could no longer reach the journal.
var ErrClosed = errors.New("eta2: server is closed")

// syncDir is installSnapshot's directory sync; tests swap it to inject a
// failure.
var syncDir = wal.SyncDir

// installSnapshot makes whatever write produces the newest snapshot in
// dir, covering every record through lsn — the one path a snapshot file
// reaches a data directory by (compaction encodes the published state
// through it, follower bootstrap tees the primary's snapshot through it).
// Crash-safe at every point: the file lands via write-temp + fsync +
// rename + directory fsync, and only then are the snapshots it supersedes
// and the WAL prefix it covers removed. A failed write leaves the
// directory as it was; a failed directory fsync removes nothing, so the
// new snapshot may sit beside those it supersedes, as after a crash.
func installSnapshot(dir string, journal *wal.Log, lsn uint64, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, fmt.Sprintf("snapshot-%020d.tmp", lsn))
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("eta2: install snapshot: %w", err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, fmt.Sprintf("snapshot-%020d.bin", lsn)))
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("eta2: install snapshot: %w", err)
	}

	if snaps, err := listSnapshots(dir); err == nil {
		for _, sn := range snaps {
			if sn.lsn < lsn {
				_ = os.Remove(sn.path)
			}
		}
	}
	if err := journal.TruncateThrough(lsn); err != nil {
		return fmt.Errorf("eta2: install snapshot: %w", err)
	}
	return nil
}

// finishCompaction records the bookkeeping of a completed compaction cycle
// over st. Skipped if the journal was detached (a racing Close already wrote
// a newer final snapshot) or a newer snapshot was already recorded.
func (s *Server) finishCompaction(tx *rcu.Tx[serverState], st *serverState) {
	if tx.W.journal != st.journal || st.lastLSN < tx.W.snapLSN {
		return
	}
	tx.W.snapLSN = st.lastLSN
	tx.W.compactions++
	tx.W.lastCompaction = time.Now()
}

// Compact writes a snapshot of the published state, covering every journaled
// mutation (on a follower: every applied record the pull loop has published),
// then truncates the WAL prefix the snapshot covers. Encoding and fsyncs run
// with no server lock held, so concurrent mutations, a follower's apply loop
// and reads proceed unimpeded; one Write at the end records the bookkeeping.
func (s *Server) Compact() error {
	return s.compactCycle(mCompactionForeground)
}

// compactCycle is the one LSN-coordinated compaction cycle — explicit,
// automatic, and the final one in Close all run it, serialized by
// compactMu (lock order everywhere: compactMu before the state cell's lock,
// never inside a Write):
// load the published state, which carries the LSN it contains and the
// journal it was written through; sync the WAL through that frontier, then
// install the state, encoded with the binary codec, as the directory's
// newest snapshot — WAL records are only deleted once a durable snapshot
// with their LSN exists, so recovery at any intermediate state replays to
// the same result — all with no server lock held; then one Write records
// the bookkeeping. ErrNotDurable without a journal.
func (s *Server) compactCycle(mode *obs.Histogram) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var t *trace.Trace
	if s.tracer.Enabled() {
		// Forced rather than sampled: compactions are rare and always
		// worth a flight-recorder slot.
		t = s.tracer.StartRoot("compaction", true)
	}
	defer t.End()
	start := time.Now()
	st := s.st.Load()
	if st.journal == nil {
		return ErrNotDurable
	}
	ws := t.StartSpan("write snapshot")
	err := st.journal.Sync()
	if err != nil {
		err = journalFailed(st.journal, "sync", err)
	} else {
		err = installSnapshot(st.journalDir, st.journal, st.lastLSN, st.Encode)
		if err != nil && st.journal.Err() != nil { // the WAL truncation failed for good
			err = journalFailed(st.journal, "truncate", err)
		}
	}
	ws.End()
	if err != nil {
		mCompactionsFailed.Inc()
		return err
	}
	fin := t.StartSpan("finish")
	_ = s.update(func(tx *rcu.Tx[serverState]) error { // cannot fail: fn returns nil
		s.finishCompaction(tx, st)
		return nil
	})
	fin.End()
	mode.Observe(time.Since(start).Seconds())
	return nil
}

// backgroundCompact runs compaction cycles until the log is back under
// the policy threshold. Threshold triggers that fire while a cycle is in
// flight are dropped by the CAS in compactIfOwed, so after each
// cycle this re-checks the condition and reclaims the flag — otherwise a
// trigger racing an in-flight cycle could leave the frontier permanently
// uncovered. Consecutive cycles coalesce: writes during a cycle are
// picked up by the next one, not compacted one-by-one. A failed cycle is
// only skipped — the threshold check at the next closed step retries.
func (s *Server) backgroundCompact() {
	for {
		_ = s.compactCycle(mCompactionBackground)
		s.compacting.Store(false)
		if s.closing.Load() || !s.compactionOwed(s.st.Load()) || !s.compacting.CompareAndSwap(false, true) {
			return
		}
	}
}

// compactionOwed reports whether st's WAL is over the compaction threshold
// with journaled mutations its newest snapshot does not cover. It only reads
// st — the working state inside a Write, or a published one outside — and
// the policy, which is immutable after open.
func (s *Server) compactionOwed(st *serverState) bool {
	if st.journal == nil || s.journalPolicy.CompactAt <= 0 {
		return false
	}
	return st.lastLSN > st.snapLSN && st.journal.Stats().Bytes >= s.journalPolicy.CompactAt
}

// Close writes a final snapshot (so the next start recovers without
// replaying anything that did not race the Close) and detaches the
// journal; on a follower, Follower.Close stops the pull loop first. Any
// in-flight background compaction is drained first. Once Close has begun,
// every mutation is refused with ErrClosed; queries keep serving the last
// state. Close is idempotent, and for servers built without WithDurability
// it only refuses later mutations.
func (s *Server) Close() error {
	s.closing.Store(true)
	err := s.compactCycle(mCompactionForeground)
	if errors.Is(err, ErrNotDurable) {
		return nil
	}
	var j *wal.Log
	_ = s.update(func(tx *rcu.Tx[serverState]) error { // cannot fail: fn returns nil
		j, tx.W.journal = tx.W.journal, nil
		return nil
	})
	if j == nil {
		return err // a concurrent Close detached it first
	}
	// Closing the log syncs it, so a record journaled between the final
	// snapshot and the detach is durable too and replays at the next start.
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// DurabilityStats reports the state of the durable mode. Enabled is false
// for in-memory servers (every other field is then zero). Lock-free: the
// LSN frontier comes from the published snapshot and the WAL shape from
// the log's own internal accounting.
func (s *Server) DurabilityStats() DurabilityStats {
	st := s.st.Load()
	if st.journal == nil {
		return DurabilityStats{}
	}
	wst := st.journal.Stats()
	var failed string
	if err := st.journal.Err(); err != nil {
		failed = err.Error()
	}
	return DurabilityStats{
		Enabled:        true,
		JournalError:   failed,
		Dir:            st.journalDir,
		Segments:       wst.Segments,
		WALBytes:       wst.Bytes,
		LastLSN:        st.lastLSN,
		CommittedLSN:   st.journal.CommittedLSN(),
		SnapshotLSN:    st.snapLSN,
		Compactions:    st.compactions,
		LastCompaction: st.lastCompaction,
	}
}
