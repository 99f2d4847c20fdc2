package eta2

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"eta2/internal/rcu"
	"eta2/internal/repl"
	"eta2/internal/trace"
	"eta2/internal/wal"
)

// This file implements the follower side of replication (DESIGN.md §12).
// A follower is a Server in role follower whose journal is fed by the
// pull loop here instead of by its own mutations: the loop fetches
// committed records from the primary's /v1/repl/log, appends each payload
// verbatim to the journal (same LSNs, same bytes), and applies it through
// applyEvent — the exact code path startup recovery replays, which runs the
// primary's own prepare and apply methods — so follower reads stay lock-free
// and follower state is bit-identical to the primary's at the same LSN.
// Everything durable — recovery, stats, compaction, the final snapshot in
// Close — is the Server's own; Follower holds only what the pull loop knows.

// errLSNGap reports a hole in the shipped stream (the primary compacted
// past our cursor, or lost a tail across a restart). The follower
// responds by re-bootstrapping from a full snapshot.
var errLSNGap = errors.New("eta2: gap in replication stream")

// FollowerOptions tunes OpenFollower. Only DataDir is required.
type FollowerOptions struct {
	// DataDir is the follower's own durable directory: its WAL copy and
	// local snapshots live here, exactly like a primary's data directory
	// (a promoted follower keeps using it as one).
	DataDir string
	// Policy tunes the local log like DurabilityPolicy does on a primary.
	// The fsync policy bounds what a power loss can force the follower to
	// refetch — it never affects correctness.
	Policy DurabilityPolicy
	// PollWait is the long-poll duration sent with each fetch when caught
	// up (default 5s, capped by the primary at repl.MaxWait).
	PollWait time.Duration
	// RetryMin/RetryMax bound the exponential backoff between failed
	// fetches (defaults 100ms and 5s).
	RetryMin time.Duration
	RetryMax time.Duration
}

func (o *FollowerOptions) applyDefaults() {
	if o.PollWait <= 0 {
		o.PollWait = 5 * time.Second
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 100 * time.Millisecond
	}
	if o.RetryMax < o.RetryMin {
		o.RetryMax = 5 * time.Second
		if o.RetryMax < o.RetryMin {
			o.RetryMax = o.RetryMin
		}
	}
}

// Follower is a read replica: a Server kept in sync with a primary by
// pulling its committed WAL records. The embedded server answers the
// full query surface (lock-free, from published snapshots) and rejects
// mutations with *FollowerWriteError; Promote turns it into a writable
// primary in place.
type Follower struct {
	s          *Server
	cli        *repl.Client
	restoreOpt []Option
	opts       FollowerOptions

	cancel context.CancelFunc
	done   chan struct{}

	// Trace continuation state, owned by the pull-loop goroutine; see
	// follower_trace.go.
	timings       [applyTimingRing]applyTiming
	pendingTraces []*trace.Trace

	// mu guards the pull loop's view of the primary below. Never held
	// while calling into f.s.
	mu          sync.Mutex
	frontier    uint64 // primary's committed frontier at last fetch
	behindSince time.Time
	connected   bool
	reconnects  uint64
	bootstraps  uint64
	fatalErr    error
}

// OpenFollower starts a read replica of the primary at primaryURL (base
// URL, e.g. "http://10.0.0.1:8080"). dataDir state from a previous run
// is recovered first — local snapshot plus local WAL replay, the same
// path a primary opens its directory through — and the pull loop resumes
// from that frontier, so restarts never refetch history they already
// hold. opts configure the server exactly like NewServer (embedder,
// tuning knobs); WithDurability is rejected — the follower's local log is
// configured by FollowerOptions instead.
func OpenFollower(primaryURL string, fopts FollowerOptions, opts ...Option) (*Follower, error) {
	if primaryURL == "" {
		return nil, errors.New("eta2: follower requires a primary URL")
	}
	if fopts.DataDir == "" {
		return nil, errors.New("eta2: follower requires a data directory")
	}
	cfg, err := buildConfig(opts...)
	if err != nil {
		return nil, err
	}
	if cfg.durable != nil {
		return nil, errors.New("eta2: WithDurability conflicts with OpenFollower; use FollowerOptions.DataDir")
	}
	policy := fopts.Policy
	if err := policy.validate(); err != nil {
		return nil, err
	}
	policy.applyDefaults()
	fopts.applyDefaults()

	s, err := openDurable(cfg, opts, fopts.DataDir, policy, roleFollower, primaryURL)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		s:          s,
		cli:        repl.NewClient(primaryURL, nil),
		restoreOpt: opts,
		opts:       fopts,
		done:       make(chan struct{}),
	}
	// Shipped write traces (X-Eta2-Trace on log responses) continue on
	// this follower; the sink runs on the pull-loop goroutine inside
	// FetchLog. See follower_trace.go.
	f.cli.TraceSink = f.importShippedTrace
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
	return f, nil
}

// Server returns the embedded server for its query surface. Mutations on
// it fail with *FollowerWriteError until Promote.
func (f *Follower) Server() *Server { return f.s }

// Err returns the error that permanently halted the pull loop, if any
// (apply divergence or a local disk failure). A healthy or merely
// disconnected follower returns nil.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fatalErr
}

// run is the pull loop: fetch a batch from the applied frontier, apply
// it, commit the local log, repeat — long-polling when caught up,
// backing off on errors, and re-bootstrapping from a full snapshot when
// the primary has compacted past our cursor.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := f.opts.RetryMin
	for ctx.Err() == nil {
		// Every applied record is published (applyRecord, bootstrap), so the
		// published frontier is the cursor.
		from := f.s.st.Load().lastLSN + 1
		frontier, n, err := f.cli.FetchLog(ctx, from, f.opts.PollWait, repl.DefaultMaxRecords, f.applyRecord)
		if ctx.Err() != nil {
			return
		}
		if f.Err() != nil {
			return // applyRecord recorded a fatal halt
		}
		// A fetch cut short mid-stream still applied its first n records:
		// they are finished like any other batch.
		if (err == nil || n > 0) && !f.finishBatch(frontier, n) {
			return
		}
		switch {
		case err == nil:
			backoff = f.opts.RetryMin
		case errors.Is(err, wal.ErrCompacted) || errors.Is(err, errLSNGap):
			if berr := f.bootstrap(ctx); berr != nil {
				if ctx.Err() != nil || f.Err() != nil {
					return
				}
				f.noteDisconnect()
				if !sleepCtx(ctx, backoff) {
					return
				}
				backoff = nextBackoff(backoff, f.opts.RetryMax)
			} else {
				backoff = f.opts.RetryMin
			}
		default:
			f.noteDisconnect()
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = nextBackoff(backoff, f.opts.RetryMax)
		}
	}
}

// applyRecord handles one shipped record, streamed by FetchLog in LSN
// order: decode, then one Write that appends the payload verbatim to the
// journal (journal-before-apply, same as a primary) and applies it through
// the recovery replay path. A failure after the append would mean local disk
// and memory disagree about the record, so it halts the loop permanently
// rather than retrying into divergence.
func (f *Follower) applyRecord(lsn uint64, payload []byte) error {
	ev, err := decodeEvent(payload)
	if err != nil {
		return f.fail(fmt.Errorf("eta2: decode shipped record %d: %w", lsn, err))
	}
	// Time the journal and apply sections into the ring so a trace
	// shipped for this record later (possibly several batches later) can
	// carry real follower-side spans; see follower_trace.go.
	tm := applyTiming{lsn: lsn, journalStart: time.Now()} //eta2:replaypurity-ok apply-timing ring feeds shipped traces, never replayed state
	if err := f.s.update(func(tx *rcu.Tx[serverState]) error {
		if err := f.s.journalShipped(tx, lsn, payload); errors.Is(err, errLSNGap) {
			return err
		} else if err != nil {
			return f.fail(fmt.Errorf("eta2: journal shipped record %d: %w", lsn, err))
		}
		tm.journalDur = time.Since(tm.journalStart) //eta2:replaypurity-ok apply-timing ring feeds shipped traces, never replayed state
		tm.applyStart = time.Now()
		if err := f.s.applyEvent(tx, lsn, ev); err != nil {
			return f.fail(fmt.Errorf("eta2: apply shipped record %d (%s): %w", lsn, ev.Kind, err))
		}
		return nil
	}); err != nil {
		return err
	}
	tm.applyDur = time.Since(tm.applyStart) //eta2:replaypurity-ok apply-timing ring feeds shipped traces, never replayed state
	f.noteApplyTiming(tm)
	mReplApplied.Inc()
	mReplAppliedLSN.Set(float64(lsn))
	return nil
}

// fail records a permanent pull-loop halt and returns the error (which
// also aborts the in-flight fetch).
func (f *Follower) fail(err error) error {
	f.mu.Lock()
	if f.fatalErr == nil {
		f.fatalErr = err
	}
	f.mu.Unlock()
	return err
}

// finishBatch updates lag bookkeeping after a fetched batch, whose records
// applyRecord has already published, and commits the journal through the
// batch tail. Returns false if the local commit failed (fatal halt).
func (f *Follower) finishBatch(frontier uint64, n int) bool {
	applied := f.s.st.Load().lastLSN
	f.mu.Lock()
	f.frontier = frontier
	f.connected = true
	lag := uint64(0)
	if frontier > applied {
		if f.behindSince.IsZero() {
			f.behindSince = time.Now()
		}
		lag = frontier - applied
	} else {
		f.behindSince = time.Time{}
	}
	behindSince := f.behindSince
	f.mu.Unlock()

	mReplPrimaryFrontier.Set(float64(frontier))
	mReplLagRecords.Set(float64(lag))
	if behindSince.IsZero() {
		mReplLagSeconds.Set(0)
	} else {
		mReplLagSeconds.Set(time.Since(behindSince).Seconds())
	}

	if n == 0 {
		// An empty long poll can still deliver shipped traces for records
		// committed in earlier rounds; complete them now.
		f.completeTraces(applied, time.Now(), 0)
		return true
	}
	commitStart := time.Now()
	if err := f.s.journalCommit(applied, nil); err != nil {
		f.fail(fmt.Errorf("eta2: commit local log through %d: %w", applied, err))
		return false
	}
	f.completeTraces(applied, commitStart, time.Since(commitStart))
	return true
}

// noteDisconnect flips the connection state and counts the reconnect.
func (f *Follower) noteDisconnect() {
	f.mu.Lock()
	f.connected = false
	f.reconnects++
	f.mu.Unlock()
	mReplReconnects.Inc()
}

// bootstrap replaces the follower's state with a full snapshot fetched
// from the primary — first sync into an empty directory when the
// primary has already compacted, or recovery from a mid-stream gap.
func (f *Follower) bootstrap(ctx context.Context) error {
	lsn, body, err := f.cli.FetchSnapshot(ctx)
	if err != nil {
		return err
	}
	defer body.Close()
	if err := f.s.adoptSnapshot(lsn, body, f.restoreOpt); err != nil {
		return err
	}
	f.mu.Lock()
	f.bootstraps++
	f.mu.Unlock()
	mReplBootstraps.Inc()
	mReplAppliedLSN.Set(float64(lsn))
	return nil
}

// Promote stops the pull loop and turns the follower into a writable
// primary in place: the journal — already at the applied frontier — is
// sealed, and the published role flips so the lock-free write gate opens
// and the node's own mutations start writing it. The promoted node is a
// full primary: it journals, compacts, and can serve its own followers.
// Everything the old primary committed past our applied frontier is
// abandoned (that is the failover contract: promote the most caught-up
// replica).
func (f *Follower) Promote() error {
	f.cancel()
	<-f.done
	s := f.s
	st := s.st.Load()
	if st.role != roleFollower || st.journal == nil {
		return errors.New("eta2: not a live follower (already promoted or closed)")
	}
	// Seal the journal: every applied record durable before we accept the
	// first write of our own.
	if err := st.journal.Sync(); err != nil {
		return fmt.Errorf("eta2: promote: %w", err)
	}
	var applied uint64
	_ = s.update(func(tx *rcu.Tx[serverState]) error { // cannot fail: fn returns nil
		tx.W.role, tx.W.primaryAddr = rolePrimary, ""
		applied = tx.W.lastLSN
		return nil
	})

	// The lag gauges were only ever written by the pull loop, which has
	// just stopped for good — without a reset they would freeze at their
	// last (possibly nonzero) values forever while the node serves as a
	// primary. A primary's frontier is its own applied LSN and its lag is
	// zero by definition.
	mReplPrimaryFrontier.Set(float64(applied))
	mReplLagRecords.Set(0)
	mReplLagSeconds.Set(0)
	mReplPromotions.Inc()
	return nil
}

// Close stops the pull loop and closes the embedded server in whichever
// role it now holds: Server.Close writes the final snapshot (so the next
// open recovers without replay) and detaches the journal.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	return f.s.Close()
}

// ReplicationStatus reports the follower's replication position,
// overlaying the pull loop's view of the primary on the server's own
// role and frontiers. Once promoted, the server's report stands alone.
func (f *Follower) ReplicationStatus() ReplicationStatus {
	rs := f.s.ReplicationStatus()
	if rs.Role != roleFollower.String() {
		return rs
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	rs.PrimaryFrontier = f.frontier
	rs.Connected = f.connected
	rs.Reconnects = f.reconnects
	rs.SnapshotBootstraps = f.bootstraps
	if f.frontier > rs.AppliedLSN {
		rs.LagRecords = f.frontier - rs.AppliedLSN
		if !f.behindSince.IsZero() {
			rs.LagSeconds = time.Since(f.behindSince).Seconds()
		}
	}
	return rs
}

// adoptSnapshot replaces the server's state with the primary's snapshot
// covering lsn, streamed from body (follower bootstrap). The snapshot is
// decoded and restored while it is teed into the data directory through
// installSnapshot, so it only becomes the directory's newest snapshot —
// superseding local snapshots and the WAL prefix it covers, usually
// everything — once it has proven readable; a torn transfer leaves disk
// and memory as they were, to be refetched next round. Disk first, then
// memory: a crash in between recovers from the installed snapshot instead
// of refetching. compactMu serializes the swap with compaction cycles.
func (s *Server) adoptSnapshot(lsn uint64, body io.Reader, opts []Option) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	st := s.st.Load()
	if st.journal == nil || st.role != roleFollower {
		return ErrNotDurable
	}
	if lsn <= st.lastLSN {
		return fmt.Errorf("eta2: bootstrap snapshot at LSN %d does not advance past applied %d", lsn, st.lastLSN)
	}
	var restored *Server
	err := installSnapshot(st.journalDir, st.journal, lsn, func(w io.Writer) error {
		tee := io.TeeReader(body, w)
		decoded, err := decodeStateBinary(tee)
		if err != nil {
			return err
		}
		if _, err := io.Copy(io.Discard, tee); err != nil { // whatever the decoder left unread
			return err
		}
		restored, err = restoreServer(decoded, opts...)
		return err
	})
	if err != nil {
		return err
	}
	s.adoptRestored(restored, lsn)
	return nil
}

// adoptRestored swaps a restored snapshot server's state into s as of lsn,
// as it is: nothing in it refers back to the server it was restored into.
// What is the node's own — its journal, its role, its compaction counters —
// stays. One publish makes the swap atomic for readers.
func (s *Server) adoptRestored(r *Server, lsn uint64) {
	from := r.st.Load()
	_ = s.update(func(tx *rcu.Tx[serverState]) error { // cannot fail: fn returns nil
		s.domains = r.domains
		tx.W.persisted = from.persisted
		tx.W.lastNewDomains, tx.W.lastMerges = nil, 0
		tx.W.lastLSN, tx.W.snapLSN = lsn, lsn
		return nil
	})
}

// sleepCtx sleeps for d unless ctx is canceled first; reports whether
// the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func nextBackoff(cur, max time.Duration) time.Duration {
	cur *= 2
	if cur > max {
		cur = max
	}
	return cur
}
