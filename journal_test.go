package eta2

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"eta2/internal/rcu"
	"eta2/internal/wal"
)

// saveBytes captures the state of s in the server's one encoding: the
// bytes the bit-identity checks compare.
func saveBytes(t testing.TB, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveStateBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyDataDir clones a (flat) durable data directory, simulating the disk
// image a crash at this instant would leave behind.
func copyDataDir(t *testing.T, src string) string {
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

// walSegments lists the WAL segment files in dir, in LSN order.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

func countSnapshots(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// waitDurable polls DurabilityStats until pred holds. Compaction runs off
// the write path, so tests rendezvous with it here before inspecting the
// data directory.
func waitDurable(t *testing.T, s *Server, pred func(DurabilityStats) bool) DurabilityStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.DurabilityStats()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for background compaction; stats: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// durableScript returns a deterministic op sequence exercising every
// journaled mutation type: user registration, described-task creation,
// max-quality allocation, observation submission, a min-cost round (whose
// collected batches enter through SubmitObservations), and step closes.
func durableScript(t *testing.T) []func(*Server) error {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	descs := []string{
		"What is the noise level around the train station?",
		"What is the decibel reading at the concert hall?",
		"What is the retail price at the local supermarket?",
		"What is the gas price at the gas station?",
		"What is the traffic speed on the main bridge?",
		"What is the congestion level at the ring road?",
	}
	var ops []func(*Server) error
	ops = append(ops, func(s *Server) error {
		var users []User
		for u := 0; u < 6; u++ {
			users = append(users, User{ID: UserID(u), Capacity: 10})
		}
		return s.AddUsers(users...)
	})
	// Two users registered through the intern table: every downstream
	// bit-identity check (crash recovery, codec round trips, follower
	// replication) now also proves names and intern state replay exactly.
	ops = append(ops, func(s *Server) error {
		ids, err := s.AddUsersByName(10, "sensor-alpha", "sensor-beta")
		if err != nil {
			return err
		}
		if len(ids) != 2 {
			return fmt.Errorf("AddUsersByName assigned %d ids, want 2", len(ids))
		}
		if id, ok := s.ResolveUser("sensor-beta"); !ok || id != ids[1] {
			return fmt.Errorf("ResolveUser(sensor-beta) = %v,%v, want %v", id, ok, ids[1])
		}
		return nil
	})
	for day := 0; day < 2; day++ {
		ops = append(ops, func(s *Server) error {
			var specs []TaskSpec
			for _, d := range descs {
				specs = append(specs, TaskSpec{Description: d, ProcTime: 1})
			}
			_, err := s.CreateTasks(specs...)
			return err
		})
		ops = append(ops, func(s *Server) error {
			alloc, err := s.AllocateMaxQuality()
			if err != nil {
				return err
			}
			var obs []Observation
			for _, p := range alloc.Pairs {
				v := float64(p.Task%7)*3 + rng.NormFloat64()/(1+float64(p.User))
				obs = append(obs, Observation{Task: p.Task, User: p.User, Value: v})
			}
			return s.SubmitObservations(obs...)
		})
		ops = append(ops, func(s *Server) error {
			_, err := s.CloseTimeStep()
			return err
		})
	}
	ops = append(ops, func(s *Server) error {
		var specs []TaskSpec
		for _, d := range descs[:3] {
			specs = append(specs, TaskSpec{Description: d, ProcTime: 1})
		}
		_, err := s.CreateTasks(specs...)
		return err
	})
	ops = append(ops, func(s *Server) error {
		_, err := s.AllocateMinCost(MinCostParams{}, func(pairs []Pair) ([]Observation, error) {
			var obs []Observation
			for _, p := range pairs {
				obs = append(obs, Observation{Task: p.Task, User: p.User, Value: float64(p.Task%5) + rng.NormFloat64()/4})
			}
			return obs, nil
		})
		return err
	})
	ops = append(ops, func(s *Server) error {
		_, err := s.CloseTimeStep()
		return err
	})
	return ops
}

// TestDurableRecoveryAtEveryBoundary is the crash-recovery acceptance
// test: the durable pipeline is "killed" (the data directory is copied,
// never cleanly closed) after every mutation, and recovery from each
// boundary image must reproduce the bit-identical snapshot the live
// server had at that instant.
func TestDurableRecoveryAtEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force multi-segment recovery; CompactAt < 0 disables
	// auto-compaction so every boundary replays the full journal.
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 512}
	opts := func() []Option {
		return []Option{
			WithEmbedder(rootTestEmbedder(t)),
			WithAlpha(0.7),
			WithGamma(0.5),
			WithDurability(dir, pol),
		}
	}
	s, err := NewServer(opts()...)
	if err != nil {
		t.Fatal(err)
	}

	type boundary struct {
		dir  string
		want []byte
	}
	var bounds []boundary
	for i, op := range durableScript(t) {
		if err := op(s); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		bounds = append(bounds, boundary{dir: copyDataDir(t, dir), want: saveBytes(t, s)})
	}
	liveStats := s.DurabilityStats()
	if !liveStats.Enabled || liveStats.LastLSN == 0 {
		t.Fatalf("durability not engaged: %+v", liveStats)
	}
	if len(walSegments(t, dir)) < 2 {
		t.Fatal("workload did not span multiple WAL segments; weaken SegmentSize")
	}

	for i, b := range bounds {
		r, err := NewServer(
			WithEmbedder(rootTestEmbedder(t)),
			WithAlpha(0.7),
			WithGamma(0.5),
			WithDurability(b.dir, pol),
		)
		if err != nil {
			t.Fatalf("boundary %d: recovery failed: %v", i, err)
		}
		if got := saveBytes(t, r); !bytes.Equal(got, b.want) {
			t.Errorf("boundary %d: recovered state is not bit-identical (%d vs %d bytes)", i, len(got), len(b.want))
		}
		r.st.Load().journal.Close() // release the copy's file handle without compacting
	}
}

// TestDurableTornFinalRecord cuts the WAL's final record at every byte
// offset (a torn write mid-record), in both shapes a crash leaves:
// recovery must truncate it away, land exactly on the previous boundary's
// state, and leave a usable server.
func TestDurableTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	// Hinted tasks keep recovery embedder-free so the per-offset loop
	// stays cheap.
	if err := s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(
		TaskSpec{DomainHint: 1, ProcTime: 1},
		TaskSpec{DomainHint: 1, ProcTime: 1},
		TaskSpec{DomainHint: 2, ProcTime: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(
		Observation{Task: 0, User: 0, Value: 1.5},
		Observation{Task: 1, User: 1, Value: 2.5},
	); err != nil {
		t.Fatal(err)
	}

	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want a single segment, got %d", len(segs))
	}
	seg := segs[0]
	prevSize := s.st.Load().journal.Stats().Bytes
	prevWant := saveBytes(t, s)

	// The record that will be torn.
	if err := s.SubmitObservations(
		Observation{Task: 0, User: 1, Value: 9.5},
		Observation{Task: 2, User: 0, Value: 4.5},
	); err != nil {
		t.Fatal(err)
	}
	fullSize := s.st.Load().journal.Stats().Bytes
	if fullSize <= prevSize {
		t.Fatalf("final record added no bytes (%d -> %d)", prevSize, fullSize)
	}
	live, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	windowEnd := int64(len(live)) // the live segment: records, then the WAL's zero window
	if windowEnd <= fullSize {
		t.Fatalf("live segment is %d bytes for %d of records: no append window", windowEnd, fullSize)
	}
	// Losing only the record's trailing zero bytes to zeros loses nothing.
	lastNonZero := int64(len(bytes.TrimRight(live, "\x00")))

	for cut := prevSize; cut < fullSize; cut++ {
		// Both crash shapes: the file ends at the cut, or is zero from the
		// cut to the window's end (a write torn inside filled space).
		for _, end := range []int64{cut, windowEnd} {
			if end == windowEnd && cut >= lastNonZero {
				continue
			}
			cdir := copyDataDir(t, dir)
			cseg := filepath.Join(cdir, filepath.Base(seg))
			if err := os.Truncate(cseg, cut); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(cseg, end); err != nil {
				t.Fatal(err)
			}
			r, err := NewServer(WithDurability(cdir, pol))
			if err != nil {
				t.Fatalf("cut %d: recovery failed: %v", cut, err)
			}
			if got := saveBytes(t, r); !bytes.Equal(got, prevWant) {
				t.Fatalf("cut %d: recovered state does not match the last intact boundary", cut)
			}
			// The recovered server must keep accepting work.
			if err := r.SubmitObservations(Observation{Task: 2, User: 1, Value: 3.5}); err != nil {
				t.Fatalf("cut %d: recovered server rejected new work: %v", cut, err)
			}
			if _, err := r.CloseTimeStep(); err != nil {
				t.Fatalf("cut %d: recovered server cannot close a step: %v", cut, err)
			}
			r.st.Load().journal.Close()
		}
	}
}

// TestDurableAutoCompaction drives the WAL past the compaction threshold
// and checks the snapshot+truncate cycle, including crash recovery from
// the compacted directory.
func TestDurableAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: 1, SegmentSize: 256}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
			t.Fatal(err)
		}
		tid := TaskID(day)
		if err := s.SubmitObservations(
			Observation{Task: tid, User: 0, Value: float64(day)},
			Observation{Task: tid, User: 1, Value: float64(day) + 1},
		); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CloseTimeStep(); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction is asynchronous: rendezvous with the background compactor
	// catching up to the write frontier. Cycles coalesce, so the count is
	// at least one, not one per step.
	st := waitDurable(t, s, func(st DurabilityStats) bool {
		return st.SnapshotLSN == st.LastLSN
	})
	if st.Compactions < 1 {
		t.Errorf("compactions = %d, want at least one at CompactAt=1", st.Compactions)
	}
	if st.LastCompaction.IsZero() {
		t.Error("LastCompaction not stamped")
	}
	if n := countSnapshots(t, dir); n != 1 {
		t.Errorf("%d snapshots on disk after compaction, want 1 (older ones removed)", n)
	}
	want := saveBytes(t, s)

	r, err := NewServer(WithDurability(copyDataDir(t, dir), pol))
	if err != nil {
		t.Fatal(err)
	}
	defer r.st.Load().journal.Close()
	if got := saveBytes(t, r); !bytes.Equal(got, want) {
		t.Error("recovery from compacted directory diverged")
	}
	rst := r.DurabilityStats()
	if rst.SnapshotLSN != st.SnapshotLSN || rst.LastLSN != st.LastLSN {
		t.Errorf("recovered LSNs %d/%d, want %d/%d", rst.SnapshotLSN, rst.LastLSN, st.SnapshotLSN, st.LastLSN)
	}
}

// TestServerCloseWritesFinalSnapshot checks the clean-shutdown path: Close
// compacts so the next start recovers snapshot-only, is idempotent, and
// leaves the server usable in memory.
func TestServerCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 2}); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, s)
	lastLSN := s.DurabilityStats().LastLSN

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if s.DurabilityStats().Enabled {
		t.Error("durability still reported enabled after Close")
	}
	if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 3}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: %v, want ErrClosed", err)
	}
	if n := countSnapshots(t, dir); n != 1 {
		t.Fatalf("%d snapshots after Close, want 1", n)
	}

	r, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := saveBytes(t, r); !bytes.Equal(got, want) {
		t.Error("state after Close + reopen diverged")
	}
	if rst := r.DurabilityStats(); rst.SnapshotLSN != lastLSN {
		t.Errorf("reopen snapshot covers %d, want %d (replay-free recovery)", rst.SnapshotLSN, lastLSN)
	}
}

// TestFailedSnapshotDirSyncRemovesNothing: a snapshot whose rename the
// directory never synced may vanish in a crash, so a failed directory sync
// fails the compaction before it deletes the snapshot it supersedes or the
// WAL prefix it covers.
func TestFailedSnapshotDirSyncRemovesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(WithDurability(dir, DurabilityPolicy{CompactAt: -1, SegmentSize: 256}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddUsers(User{ID: 0, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := s.AddUsers(User{ID: UserID(i), Capacity: 5}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.st.Load().journal.Stats()
	if before.Segments < 2 {
		t.Fatalf("%d WAL segments, want several for a truncation to remove", before.Segments)
	}

	syncDir = func(string) error { return syscall.EIO }
	err = s.Compact()
	syncDir = wal.SyncDir
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Compact with a failing directory sync = %v, want EIO", err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(snaps, func(sn snapshotFile) bool { return sn.lsn == 1 }) {
		t.Errorf("snapshots after the failed compaction: %+v, want the one at LSN 1 kept", snaps)
	}
	if after := s.st.Load().journal.Stats(); after.FirstLSN != before.FirstLSN || after.Segments != before.Segments {
		t.Errorf("WAL went from first LSN %d in %d segments to %d in %d: truncated after a failed directory sync",
			before.FirstLSN, before.Segments, after.FirstLSN, after.Segments)
	}
}

// TestClosedServerRefusesWrites: once Close has detached the journal, a
// mutation could only be applied in memory and lost at the next start, so it
// is refused with ErrClosed and leaves the state as Close found it.
func TestClosedServerRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(WithDurability(dir, DurabilityPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 1, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 2, Capacity: 5}); !errors.Is(err, ErrClosed) {
		t.Errorf("AddUsers after Close: %v, want ErrClosed", err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("CreateTasks after Close: %v, want ErrClosed", err)
	}
	if n := s.NumUsers(); n != 1 {
		t.Errorf("%d users after a refused AddUsers, want 1", n)
	}
	r, err := NewServer(WithDurability(dir, DurabilityPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.NumUsers(); n != 1 {
		t.Errorf("reopened with %d users, want 1", n)
	}

	m, _ := NewServer()
	_ = m.Close()
	if err := m.AddUsers(User{ID: 1, Capacity: 5}); !errors.Is(err, ErrClosed) {
		t.Errorf("in-memory AddUsers after Close: %v, want ErrClosed", err)
	}
}

func TestInMemoryServerDurabilityNoops(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if st := s.DurabilityStats(); st.Enabled {
		t.Error("in-memory server reports durability enabled")
	}
	if err := s.Compact(); !errors.Is(err, ErrNotDurable) {
		t.Errorf("Compact = %v, want ErrNotDurable", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close = %v, want nil no-op", err)
	}
}

func TestWithDurabilityValidation(t *testing.T) {
	if _, err := NewServer(WithDurability("", DurabilityPolicy{})); err == nil {
		t.Error("empty data directory accepted")
	}
	if _, err := NewServer(WithDurability(t.TempDir(), DurabilityPolicy{Fsync: "sometimes"})); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}

// compactedWithTail builds a durable directory holding one snapshot and a
// WAL tail past it, never cleanly closed, and returns it with the live
// server's state and durability stats.
func compactedWithTail(t *testing.T, pol DurabilityPolicy) (dir string, want []byte, st DurabilityStats) {
	t.Helper()
	dir = t.TempDir()
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}, User{ID: 2, Capacity: 5}))
	_, err = s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}, TaskSpec{DomainHint: 1, ProcTime: 1})
	must(err)
	must(s.SubmitObservations(Observation{Task: 0, User: 0, Value: 2}, Observation{Task: 1, User: 0, Value: 3}))
	_, err = s.CloseTimeStep()
	must(err)
	must(s.Compact())
	_, err = s.CreateTasks(TaskSpec{DomainHint: 2, ProcTime: 1})
	must(err)
	must(s.SubmitObservations(Observation{Task: 2, User: 1, Value: 7}))
	st = s.DurabilityStats()
	if countSnapshots(t, dir) != 1 || st.SnapshotLSN == 0 || st.LastLSN <= st.SnapshotLSN {
		t.Fatalf("setup: want one snapshot and a WAL tail, stats %+v", st)
	}
	want = saveBytes(t, s)
	must(s.st.Load().journal.Close())
	return dir, want, st
}

// TestRecoverySnapshotHandling: a garbage newest snapshot falls back to
// the older good one and replays the contiguous tail past it; a
// future-version snapshot is a hard failure (a newer build's data must not
// be silently discarded).
func TestRecoverySnapshotHandling(t *testing.T) {
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	dir, want, st := compactedWithTail(t, pol)

	// What a compaction at the frontier leaves if its file is damaged
	// before the snapshot it supersedes is removed.
	newest := filepath.Join(dir, fmt.Sprintf("snapshot-%020d.bin", st.LastLSN))
	if err := os.WriteFile(newest, []byte("garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatalf("recovery did not fall back past a garbage snapshot: %v", err)
	}
	if got := saveBytes(t, r); !bytes.Equal(got, want) {
		t.Error("fallback recovery diverged")
	}
	if rst := r.DurabilityStats(); rst.SnapshotLSN != st.SnapshotLSN || rst.LastLSN != st.LastLSN {
		t.Errorf("fallback recovered LSNs %d/%d, want %d/%d", rst.SnapshotLSN, rst.LastLSN, st.SnapshotLSN, st.LastLSN)
	}
	r.st.Load().journal.Close()

	future := append([]byte(snapshotMagic), 9) // uvarint codec version 9
	if err := os.WriteFile(newest, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(WithDurability(dir, pol)); !errors.Is(err, ErrBadState) {
		t.Errorf("future-version snapshot: err = %v, want ErrBadState", err)
	}
}

// TestRecoveryRefusesOrphanedTail damages the only snapshot of a compacted
// directory. There is nothing to fall back to, and the WAL tail starts past
// the records the snapshot covered: replaying it onto empty state would
// build a different history (old task 2 answering as task 0), so the open
// must fail, naming the record and the state it does not follow.
func TestRecoveryRefusesOrphanedTail(t *testing.T) {
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	dir, _, st := compactedWithTail(t, pol)

	snap := filepath.Join(dir, fmt.Sprintf("snapshot-%020d.bin", st.SnapshotLSN))
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // one bit of the trailing checksum
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewServer(WithDurability(dir, pol))
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("orphaned WAL tail: err = %v, want ErrBadState", err)
	}
	if want := fmt.Sprintf("journal record %d does not follow recovered state at 0", st.SnapshotLSN+1); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
}

// TestRecoveryRefusesJSONSnapshot: a directory holding a snapshot-<lsn>.json
// must not open — skipping the file would replay the truncated WAL onto
// older state — and the error names it.
func TestRecoveryRefusesJSONSnapshot(t *testing.T) {
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	dir, want, st := compactedWithTail(t, pol)
	legacy := fmt.Sprintf("snapshot-%020d.json", st.LastLSN)
	if err := os.WriteFile(filepath.Join(dir, legacy), want, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewServer(WithDurability(dir, pol))
	if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), legacy) {
		t.Errorf("directory holding %s: err = %v, want ErrBadState naming the file", legacy, err)
	}
}

// TestRecoveryReclaimsStaleSnapshotTemp plants the file a SIGKILL between
// installSnapshot's create and rename leaves behind — beside a valid
// snapshot and a WAL tail — and asserts the next open deletes it and
// recovers the same state.
func TestRecoveryReclaimsStaleSnapshotTemp(t *testing.T) {
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	crash, want, st := compactedWithTail(t, pol)
	stale := filepath.Join(crash, fmt.Sprintf("snapshot-%020d.tmp", st.LastLSN))
	if err := os.WriteFile(stale, want[:len(want)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewServer(WithDurability(crash, pol))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale %s survived the reopen (stat err = %v)", filepath.Base(stale), err)
	}
	if got := saveBytes(t, r); !bytes.Equal(got, want) {
		t.Error("recovery beside a stale snapshot temp diverged")
	}
}

// TestRecoveryRefusesObservationForUnknownTask plants a well-formed
// observations record for a task the state does not hold — what a build
// that journaled a Collector's batch unchecked could leave behind. Replay
// must refuse it by LSN, as a follower's apply does through the same
// applyEvent, rather than carry it to the close that would index the
// per-task columns with it.
func TestRecoveryRefusesObservationForUnknownTask(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}, TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(Observation{Task: 1, User: 0, Value: 2}); err != nil {
		t.Fatal(err)
	}
	for _, phantom := range []TaskID{2, -1} {
		crash := copyDataDir(t, dir)
		planted, err := wal.Open(crash, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		lsn, err := planted.Append(encodeEvent(nil, walEvent{Kind: eventObservations, Observations: []Observation{{Task: 0, User: 0, Value: 1}, {Task: phantom, User: 0, Value: 9}}}))
		if err != nil {
			t.Fatal(err)
		}
		if err := planted.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = NewServer(WithDurability(crash, pol))
		if want := fmt.Sprintf("journal record %d holds an observation for task %d", lsn, phantom); !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), want) {
			t.Errorf("record for task %d: err = %v, want ErrBadState saying %q", phantom, err, want)
		}
	}
	// The directory without the planted record still opens.
	if err := s.st.Load().journal.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	r.st.Load().journal.Close()
}

// TestRecoveryRefusesJSONRecord plants the JSON add_users record older builds
// wrote behind records this build wrote. Recovery must refuse it with
// ErrBadState naming its LSN and the upgrade, not skip it.
func TestRecoveryRefusesJSONRecord(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUsers(User{ID: 0, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.st.Load().journal.Close(); err != nil {
		t.Fatal(err)
	}
	planted, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := planted.Append([]byte(`{"t":"add_users","users":[{"ID":1,"Capacity":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := planted.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewServer(WithDurability(dir, pol))
	if want := fmt.Sprintf("journal record %d", lsn); !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), want) ||
		!strings.Contains(err.Error(), "/v1/admin/compact") {
		t.Errorf("JSON record at %d: err = %v, want ErrBadState naming it and the upgrade", lsn, err)
	}
}

// TestReplayedObservationsAreCounted: eta2_server_observations_accepted_total
// counts replay, as its help text says. Recovering a directory that holds n
// journaled observations grows it by n, and so does a follower applying the
// same log: both run the ApplyObservations a live submit runs.
func TestReplayedObservationsAreCounted(t *testing.T) {
	dir := t.TempDir()
	pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
	s, err := NewServer(WithDurability(dir, pol))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}, TaskSpec{DomainHint: 1, ProcTime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 1}, Observation{Task: 0, User: 1, Value: 2}, Observation{Task: 1, User: 0, Value: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitObservations(Observation{Task: 1, User: 1, Value: 4}); err != nil {
		t.Fatal(err)
	}
	const n = 4

	before := mObsAccepted.Value()
	r, err := NewServer(WithDurability(copyDataDir(t, dir), pol))
	if err != nil {
		t.Fatal(err)
	}
	r.st.Load().journal.Close()
	if got := mObsAccepted.Value() - before; got != n {
		t.Errorf("recovery counted %d observations, want %d", got, n)
	}

	before = mObsAccepted.Value()
	f, err := OpenFollower(replTestServer(t, s).URL, fastFollowerOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, s.DurabilityStats().LastLSN)
	if got := mObsAccepted.Value() - before; got != n {
		t.Errorf("follower counted %d observations, want %d", got, n)
	}
}

// TestMinCostRefusesPhantomObservations: AllocateMinCost holds what the
// Collector returns to the check SubmitObservations runs, before any of it
// is journaled or applied. A batch naming a task or a user the server does
// not hold fails the round; the honest observations that came with it are
// not kept either, the phantom task has no truth after the next close, and
// the data directory replays to the live state.
func TestMinCostRefusesPhantomObservations(t *testing.T) {
	for _, phantom := range []Observation{{Task: 40, User: 0, Value: 1}, {Task: 0, User: 40, Value: 1}} {
		dir := t.TempDir()
		pol := DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}
		s, err := NewServer(WithDurability(dir, pol))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}, User{ID: 2, Capacity: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}, TaskSpec{DomainHint: 2, ProcTime: 1}); err != nil {
			t.Fatal(err)
		}
		before := saveBytes(t, s)
		calls := 0
		_, err = s.AllocateMinCost(MinCostParams{}, func(pairs []Pair) ([]Observation, error) {
			calls++
			obs := []Observation{phantom}
			for _, p := range pairs {
				obs = append(obs, Observation{Task: p.Task, User: p.User, Value: 4})
			}
			return obs, nil
		})
		if err == nil || calls != 1 {
			t.Fatalf("phantom %+v: err = %v after %d collector calls, want the first batch to fail the round", phantom, err, calls)
		}
		if got := saveBytes(t, s); !bytes.Equal(got, before) {
			t.Errorf("phantom %+v: the refused batch changed the server's state", phantom)
		}
		if err := s.SubmitObservations(Observation{Task: 0, User: 0, Value: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CloseTimeStep(); err != nil {
			t.Fatal(err)
		}
		if est, ok := s.Truth(phantom.Task); phantom.Task == 40 && ok {
			t.Errorf("Truth(%d) = %+v, true: a task the server never created has an estimate", phantom.Task, est)
		}
		want := saveBytes(t, s)
		r, err := NewServer(WithDurability(copyDataDir(t, dir), pol))
		if err != nil {
			t.Fatalf("phantom %+v: reopen: %v", phantom, err)
		}
		if got := saveBytes(t, r); !bytes.Equal(got, want) {
			t.Errorf("phantom %+v: reopened state differs from the live one", phantom)
		}
		r.st.Load().journal.Close()
		s.st.Load().journal.Close()
	}
}

// TestNonFiniteInputRefused: a capacity, processing time, cost or observed
// value that is NaN or an infinity is refused by the validators, before
// anything is journaled — so an in-memory server and a durable one (whose
// JSON event encoder cannot even write a NaN) answer alike, neither's state
// changes, and the durable one's LastLSN does not move. The min-cost
// Collector's batch is held to the same check.
func TestNonFiniteInputRefused(t *testing.T) {
	build := func(opts ...Option) *Server {
		t.Helper()
		s, err := NewServer(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddUsers(User{ID: 0, Capacity: 5}, User{ID: 1, Capacity: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}, TaskSpec{DomainHint: 2, ProcTime: 1}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	mem := build()
	dur := build(WithDurability(t.TempDir(), DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}))
	defer dur.Close()

	collect := func(v float64) Collector {
		return func(pairs []Pair) ([]Observation, error) {
			return []Observation{{Task: pairs[0].Task, User: pairs[0].User, Value: v}}, nil
		}
	}
	type attempt struct {
		name string
		do   func(s *Server, v float64) error
	}
	attempts := []attempt{
		{"AddUsers capacity", func(s *Server, v float64) error { return s.AddUsers(User{ID: 7, Capacity: v}) }},
		{"AddUsers new capacity of a registered user", func(s *Server, v float64) error { return s.AddUsers(User{ID: 0, Capacity: v}) }},
		{"AddUsersByName capacity", func(s *Server, v float64) error { _, err := s.AddUsersByName(v, "ann"); return err }},
		{"CreateTasks processing time", func(s *Server, v float64) error {
			_, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: v})
			return err
		}},
		{"CreateTasks cost", func(s *Server, v float64) error {
			_, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1, Cost: v})
			return err
		}},
		{"SubmitObservations value", func(s *Server, v float64) error {
			return s.SubmitObservations(Observation{Task: 0, User: 0, Value: 3}, Observation{Task: 1, User: 1, Value: v})
		}},
		{"AllocateMinCost collected value", func(s *Server, v float64) error {
			_, err := s.AllocateMinCost(MinCostParams{}, collect(v))
			return err
		}},
	}
	memBefore, durBefore, lsnBefore := saveBytes(t, mem), saveBytes(t, dur), dur.DurabilityStats().LastLSN
	if lsnBefore == 0 {
		t.Fatal("the durable server journaled nothing while it was built")
	}
	for _, a := range attempts {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			memErr, durErr := a.do(mem, v), a.do(dur, v)
			if memErr == nil || durErr == nil || memErr.Error() != durErr.Error() {
				t.Errorf("%s = %g: in-memory server answers %v, durable server %v; want the same refusal", a.name, v, memErr, durErr)
			}
			if got := dur.DurabilityStats().LastLSN; got != lsnBefore {
				t.Fatalf("%s = %g: the refused call moved LastLSN from %d to %d", a.name, v, lsnBefore, got)
			}
			if !bytes.Equal(saveBytes(t, mem), memBefore) || !bytes.Equal(saveBytes(t, dur), durBefore) {
				t.Fatalf("%s = %g: the refused call changed a server's state", a.name, v)
			}
		}
	}
	// The finite twin of every attempt is accepted: the refusals above were
	// about the value, not about the call.
	for _, a := range attempts {
		if err := a.do(mem, 2); err != nil {
			t.Errorf("%s = 2: %v", a.name, err)
		}
	}
}

// TestCaptureTakesNoServerLock: every query and every state capture is a load
// of the published state. With a writer parked inside a Write of the state
// cell, holding its lock, each query method returns, SaveStateBinary and
// CaptureReplicationSnapshot return labelled with the published LSN, and
// Compact gets as far as installing its snapshot file; only its bookkeeping
// waits for the writer.
func TestCaptureTakesNoServerLock(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(WithEmbedder(rootTestEmbedder(t)), WithDurability(dir, DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	script := durableScript(t)
	for i, op := range script[:len(script)-1] { // the last close left out: an open day's observations are captured too
		if err := op(s); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := s.AddUsersByName(3, "named"); err != nil {
		t.Fatal(err)
	}
	lsn := s.DurabilityStats().LastLSN
	want := saveBytes(t, s)

	parked, release, written := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		written <- s.st.Write(func(*rcu.Tx[serverState]) error {
			close(parked)
			<-release
			return nil
		})
	}()
	<-parked
	locked := true
	unlock := func() {
		if locked {
			locked = false
			close(release)
			if err := <-written; err != nil {
				t.Error(err)
			}
		}
	}
	defer unlock()
	within := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return while a writer held the state cell", what)
		}
	}
	id, _ := s.ResolveUser("named")
	for _, q := range []struct {
		name string
		read func() any
	}{
		{"Truth", func() any { est, _ := s.Truth(0); return est }},
		{"Expertise", func() any { return s.Expertise(0, 0) }},
		{"ExpertiseInDomain", func() any { return s.ExpertiseInDomain(0, 1) }},
		{"Domain", func() any { return s.Domain(0) }},
		{"NumUsers", func() any { return s.NumUsers() }},
		{"NumDomains", func() any { return s.NumDomains() }},
		{"Day", func() any { return s.Day() }},
		{"DurabilityStats", func() any { return s.DurabilityStats() }},
		{"ReplicationStatus", func() any { return s.ReplicationStatus() }},
		{"CommittedLSN", func() any { at, _ := s.CommittedLSN(); return at }},
		{"ResolveUser", func() any { id, _ := s.ResolveUser("named"); return id }},
		{"UserName", func() any { return s.UserName(id) }},
	} {
		within(q.name, func() error {
			_ = q.read()
			return nil
		})
	}
	within("SaveStateBinary", func() error {
		var buf bytes.Buffer
		if err := s.SaveStateBinary(&buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), want) {
			return errors.New("saved state differs from the one saved with the lock free")
		}
		return nil
	})
	within("CaptureReplicationSnapshot", func() error {
		at, write, err := s.CaptureReplicationSnapshot()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		if at != lsn || !bytes.Equal(buf.Bytes(), want) {
			return fmt.Errorf("captured LSN %d, want %d with the saved state's bytes", at, lsn)
		}
		return nil
	})

	compacted := make(chan error, 1)
	go func() { compacted <- s.Compact() }()
	snapshot := filepath.Join(dir, fmt.Sprintf("snapshot-%020d.bin", lsn))
	within("the capture and write of Compact", func() error {
		for {
			if got, err := os.ReadFile(snapshot); err == nil {
				if !bytes.Equal(got, want) {
					return errors.New("installed snapshot differs from the saved state")
				}
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	})
	select {
	case err := <-compacted:
		t.Fatalf("Compact returned (%v) before its bookkeeping could run a Write", err)
	default:
	}
	unlock()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if got := s.DurabilityStats(); got.SnapshotLSN != lsn || got.Compactions != 1 {
		t.Errorf("after Compact: snapshot LSN %d, %d compactions, want %d and 1", got.SnapshotLSN, got.Compactions, lsn)
	}
}
