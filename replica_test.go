package eta2

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eta2/internal/rcu"
	"eta2/internal/repl"
)

// replTestServer exposes a primary's replication endpoints the way
// internal/httpapi wires them (the root package cannot import httpapi
// without a cycle, so the two routes are mounted directly).
func replTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(repl.LogPath, func(w http.ResponseWriter, r *http.Request) { repl.ServeLog(s, w, r) })
	mux.HandleFunc(repl.SnapshotPath, func(w http.ResponseWriter, r *http.Request) { repl.ServeSnapshot(s, w, r) })
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// fastFollowerOptions keeps test pull loops snappy.
func fastFollowerOptions(dir string) FollowerOptions {
	return FollowerOptions{
		DataDir:  dir,
		Policy:   DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 512},
		PollWait: 200 * time.Millisecond,
		RetryMin: 5 * time.Millisecond,
		RetryMax: 50 * time.Millisecond,
	}
}

// waitApplied blocks until the follower has applied through lsn.
func waitApplied(t *testing.T, f *Follower, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := f.Err(); err != nil {
			t.Fatalf("follower halted: %v", err)
		}
		rs := f.ReplicationStatus()
		if rs.AppliedLSN >= lsn {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d waiting for %d (status %+v)", rs.AppliedLSN, lsn, rs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerBitIdenticalAtEveryBoundary is the replication acceptance
// test: after every scripted mutation on the primary, the follower —
// converged to the same LSN — must hold bit-identical state. Midway the
// follower is restarted from its own data directory (resume without
// refetching history), compacts itself with a day's observations still
// buffered, and the primary compacts its shipped WAL prefix (an
// already-caught-up cursor must survive the truncation) — after which
// both nodes' durability stats have the same shape.
func TestFollowerBitIdenticalAtEveryBoundary(t *testing.T) {
	pdir, fdir := t.TempDir(), t.TempDir()
	tuning := []Option{WithEmbedder(rootTestEmbedder(t)), WithAlpha(0.7), WithGamma(0.5)}
	primary, err := NewServer(append([]Option{
		WithDurability(pdir, DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 512}),
	}, tuning...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	ts := replTestServer(t, primary)

	f, err := OpenFollower(ts.URL, fastFollowerOptions(fdir), tuning...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }()

	ops := durableScript(t)
	for i, op := range ops {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want := saveBytes(t, primary)
		lsn := primary.DurabilityStats().LastLSN
		waitApplied(t, f, lsn)
		if got := saveBytes(t, f.Server()); string(got) != string(want) {
			t.Fatalf("op %d: follower state diverged from primary at LSN %d", i, lsn)
		}
		fst := f.Server().DurabilityStats()
		if !fst.Enabled || fst.LastLSN != lsn || fst.SnapshotLSN > lsn {
			t.Fatalf("op %d: follower durability %+v, want enabled at LSN %d", i, fst, lsn)
		}

		switch i {
		case 2:
			// Follower restart mid-stream: the new instance must recover
			// from its own directory and resume at the same frontier.
			if err := f.Close(); err != nil {
				t.Fatalf("op %d: close follower: %v", i, err)
			}
			if f, err = OpenFollower(ts.URL, fastFollowerOptions(fdir), tuning...); err != nil {
				t.Fatalf("op %d: reopen follower: %v", i, err)
			}
			if got := f.ReplicationStatus().AppliedLSN; got != lsn {
				t.Fatalf("op %d: reopened follower resumed at LSN %d, want %d", i, got, lsn)
			}
			if got := saveBytes(t, f.Server()); string(got) != string(want) {
				t.Fatalf("op %d: reopened follower state diverged", i)
			}
		case 3:
			// Follower compaction mid-day: the same Server.Compact a
			// primary runs, labelled with the applied frontier.
			if err := f.Server().Compact(); err != nil {
				t.Fatalf("op %d: compact follower: %v", i, err)
			}
			if fst := f.Server().DurabilityStats(); fst.SnapshotLSN != lsn || fst.Compactions != 1 {
				t.Fatalf("op %d: follower after compact %+v, want snapshot at LSN %d, 1 compaction", i, fst, lsn)
			}
		case 5:
			// Primary compaction mid-stream: shipped segments are pruned,
			// but a caught-up follower streams on without a bootstrap.
			if err := primary.Compact(); err != nil {
				t.Fatalf("op %d: compact primary: %v", i, err)
			}
			if err := f.Server().Compact(); err != nil {
				t.Fatalf("op %d: compact follower: %v", i, err)
			}
			pst, fst := primary.DurabilityStats(), f.Server().DurabilityStats()
			if fst.LastLSN != pst.LastLSN || fst.SnapshotLSN != pst.SnapshotLSN || fst.SnapshotLSN != lsn {
				t.Fatalf("op %d: durability shapes differ: primary %+v, follower %+v", i, pst, fst)
			}
		}
	}
	if n := f.ReplicationStatus().SnapshotBootstraps; n != 0 {
		t.Fatalf("attached-from-genesis follower bootstrapped %d times, want 0", n)
	}
	// The follower's intern table must be rebuilt from the replicated log,
	// not merely carried as snapshot strings: name lookups resolve to the
	// same dense ids the primary assigned.
	for _, name := range []string{"sensor-alpha", "sensor-beta"} {
		pid, pok := primary.ResolveUser(name)
		fid, fok := f.Server().ResolveUser(name)
		if !pok || !fok || pid != fid {
			t.Fatalf("ResolveUser(%q): primary=%v,%v follower=%v,%v", name, pid, pok, fid, fok)
		}
		if pn, fn := primary.UserName(pid), f.Server().UserName(fid); pn != name || fn != name {
			t.Fatalf("UserName(%d): primary=%q follower=%q, want %q", pid, pn, fn, name)
		}
	}
}

// TestFollowerBootstrapAfterCompaction attaches a brand-new follower to
// a primary whose history is already compacted away: the only path to
// the current state is the snapshot bootstrap, after which streaming
// resumes for new writes.
func TestFollowerBootstrapAfterCompaction(t *testing.T) {
	pdir := t.TempDir()
	tuning := []Option{WithEmbedder(rootTestEmbedder(t)), WithAlpha(0.7), WithGamma(0.5)}
	primary, err := NewServer(append([]Option{
		WithDurability(pdir, DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 512}),
	}, tuning...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	ops := durableScript(t)
	for i, op := range ops[:len(ops)-1] {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}

	// What a bootstrap adopts is the persistable state and the two LSNs. The
	// node keeps what is its own: a follower with no pull loop, one compaction
	// behind it, is handed the primary's snapshot directly.
	cfg, err := buildConfig(tuning...)
	if err != nil {
		t.Fatal(err)
	}
	node, err := openDurable(cfg, tuning, t.TempDir(), fastFollowerOptions("").Policy, roleFollower, "http://primary.invalid")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Compact(); err != nil {
		t.Fatal(err)
	}
	before := *node.st.Load()
	lsn, write, err := primary.CaptureReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var shipped bytes.Buffer
	if err := write(&shipped); err != nil {
		t.Fatal(err)
	}
	if err := node.adoptSnapshot(lsn, &shipped, tuning); err != nil {
		t.Fatal(err)
	}
	after := *node.st.Load()
	if after.lastLSN != lsn || after.snapLSN != lsn {
		t.Errorf("adopted at LSN %d: frontier %d, snapshot %d", lsn, after.lastLSN, after.snapLSN)
	}
	if got, want := saveBytes(t, node), saveBytes(t, primary); string(got) != string(want) {
		t.Error("adopted state diverged from primary")
	}
	after.State, after.lastLSN, after.snapLSN = before.State, before.lastLSN, before.snapLSN
	if before.journal == nil || before.role != roleFollower || before.primaryAddr == "" || before.compactions != 1 || before.lastCompaction.IsZero() {
		t.Fatalf("fixture: node-local state before the bootstrap is %+v", before)
	}
	if !reflect.DeepEqual(after, before) {
		t.Errorf("bootstrap changed what is the node's own:\n before %+v\n after  %+v", before, after)
	}

	ts := replTestServer(t, primary)
	f, err := OpenFollower(ts.URL, fastFollowerOptions(t.TempDir()), tuning...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, primary.DurabilityStats().LastLSN)
	if got, want := saveBytes(t, f.Server()), saveBytes(t, primary); string(got) != string(want) {
		t.Fatal("bootstrapped follower state diverged from primary")
	}
	if n := f.ReplicationStatus().SnapshotBootstraps; n < 1 {
		t.Fatalf("late-attaching follower reported %d bootstraps, want >= 1", n)
	}

	// Streaming resumes after the bootstrap for fresh writes.
	last := ops[len(ops)-1]
	if err := last(primary); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, primary.DurabilityStats().LastLSN)
	if got, want := saveBytes(t, f.Server()), saveBytes(t, primary); string(got) != string(want) {
		t.Fatal("follower diverged on the first post-bootstrap record")
	}
}

// TestBootstrapAdoptsInternTable: a bootstrap adopts the snapshot's name
// bindings with the rest of its state, in the one publish name lookups load.
// Lookups running beside the adoption are race-clean (run under -race), and
// afterwards every name resolves as the snapshot binds it — also one the node
// bound to another id, as the wholesale adoption always did.
func TestBootstrapAdoptsInternTable(t *testing.T) {
	restored := func(users ...User) *Server {
		t.Helper()
		src, err := NewServer()
		if err != nil {
			t.Fatal(err)
		}
		if err := src.AddUsers(users...); err != nil {
			t.Fatal(err)
		}
		r, err := LoadServer(bytes.NewReader(saveBytes(t, src)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	node, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := node.AddUsers(User{ID: 0, Capacity: 2, Name: "ann"}); err != nil {
		t.Fatal(err)
	}
	later := restored(User{ID: 0, Capacity: 2, Name: "ann"}, User{ID: 1, Capacity: 2, Name: "bob"})

	started, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			node.ResolveUser("bob")
			node.UserName(1)
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	node.adoptRestored(later.st.Load().State, 7)
	close(stop)
	<-stopped
	for name, want := range map[string]UserID{"ann": 0, "bob": 1} {
		if id, ok := node.ResolveUser(name); !ok || id != want {
			t.Errorf("after the bootstrap %q resolves to %d (%v), want %d", name, id, ok, want)
		}
	}

	node.adoptRestored(restored(User{ID: 5, Capacity: 1, Name: "ann"}).st.Load().State, 9)
	if id, ok := node.ResolveUser("ann"); !ok || id != 5 {
		t.Errorf("after a bootstrap binding ann to 5, ann resolves to %d (%v)", id, ok)
	}
	if _, ok := node.ResolveUser("bob"); ok {
		t.Error("bob outlived a bootstrap whose snapshot does not name him")
	}
}

// TestFollowerRejectsWrites pins the write gate: every public mutation
// on a follower fails with *FollowerWriteError naming the primary, and
// reads keep working throughout.
func TestFollowerRejectsWrites(t *testing.T) {
	pdir := t.TempDir()
	primary, err := NewServer(WithDurability(pdir, DurabilityPolicy{Fsync: FsyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.AddUsers(User{ID: 1, Capacity: 5}); err != nil {
		t.Fatal(err)
	}
	ts := replTestServer(t, primary)

	f, err := OpenFollower(ts.URL, fastFollowerOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, primary.DurabilityStats().LastLSN)

	s := f.Server()
	muts := map[string]func() error{
		"AddUsers":    func() error { return s.AddUsers(User{ID: 2, Capacity: 1}) },
		"CreateTasks": func() error { _, err := s.CreateTasks(TaskSpec{DomainHint: 1, ProcTime: 1}); return err },
		"SubmitObservations": func() error {
			return s.SubmitObservations(Observation{Task: 0, User: 1, Value: 1})
		},
		"CloseTimeStep":      func() error { _, err := s.CloseTimeStep(); return err },
		"AllocateMaxQuality": func() error { _, err := s.AllocateMaxQuality(); return err },
		"AllocateMinCost":    func() error { _, err := s.AllocateMinCost(MinCostParams{}, nil); return err },
	}
	for name, mut := range muts {
		err := mut()
		var fw *FollowerWriteError
		if !errors.As(err, &fw) {
			t.Fatalf("%s on follower: got %v, want *FollowerWriteError", name, err)
		}
		if fw.Primary != ts.URL {
			t.Fatalf("%s error names primary %q, want %q", name, fw.Primary, ts.URL)
		}
	}
	if got := s.NumUsers(); got != 1 {
		t.Fatalf("follower reads broken: %d users, want 1", got)
	}
	if rs := f.ReplicationStatus(); rs.Role != "follower" || rs.Primary != ts.URL {
		t.Fatalf("replication status %+v, want follower of %s", rs, ts.URL)
	}
}

// TestPromoteFlipsFollowerToPrimary kills the primary, promotes the
// caught-up follower, and verifies the promoted node accepts writes,
// journals them to its own log, and can serve a follower of its own —
// a full failover chain.
func TestPromoteFlipsFollowerToPrimary(t *testing.T) {
	pdir := t.TempDir()
	tuning := []Option{WithEmbedder(rootTestEmbedder(t)), WithAlpha(0.7), WithGamma(0.5)}
	primary, err := NewServer(append([]Option{
		WithDurability(pdir, DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 512}),
	}, tuning...)...)
	if err != nil {
		t.Fatal(err)
	}
	ts := replTestServer(t, primary)

	f, err := OpenFollower(ts.URL, fastFollowerOptions(t.TempDir()), tuning...)
	if err != nil {
		t.Fatal(err)
	}

	ops := durableScript(t)
	split := len(ops) - 2
	for i, op := range ops[:split] {
		if err := op(primary); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	lsn := primary.DurabilityStats().LastLSN
	waitApplied(t, f, lsn)

	// Failover: primary dies, follower takes over.
	ts.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	promoted := f.Server()
	if rs := promoted.ReplicationStatus(); rs.Role != "primary" {
		t.Fatalf("promoted role %q, want primary", rs.Role)
	}
	st := promoted.DurabilityStats()
	if !st.Enabled || st.LastLSN != lsn {
		t.Fatalf("promoted durability %+v, want enabled at LSN %d", st, lsn)
	}

	// The promoted node accepts and journals the rest of the script.
	for i, op := range ops[split:] {
		if err := op(promoted); err != nil {
			t.Fatalf("post-promotion op %d: %v", i, err)
		}
	}
	if got := promoted.DurabilityStats().LastLSN; got <= lsn {
		t.Fatalf("promoted node did not journal: LSN still %d", got)
	}

	// And it ships its log like any primary: a fresh follower of the
	// promoted node converges to bit-identical state.
	ts2 := replTestServer(t, promoted)
	f2, err := OpenFollower(ts2.URL, fastFollowerOptions(t.TempDir()), tuning...)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitApplied(t, f2, promoted.DurabilityStats().LastLSN)
	if got, want := saveBytes(t, f2.Server()), saveBytes(t, promoted); string(got) != string(want) {
		t.Fatal("follower of promoted node diverged")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// hintedPrimary opens a durable primary holding 8 users and 50 hinted
// tasks — no embedder, so observation streams are cheap to drive.
func hintedPrimary(t *testing.T) *Server {
	t.Helper()
	primary, err := NewServer(WithDurability(t.TempDir(),
		DurabilityPolicy{Fsync: FsyncNever, CompactAt: -1, SegmentSize: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	var users []User
	for u := 0; u < 8; u++ {
		users = append(users, User{ID: UserID(u), Capacity: 100})
	}
	if err := primary.AddUsers(users...); err != nil {
		t.Fatal(err)
	}
	specs := make([]TaskSpec, 50)
	for i := range specs {
		specs[i] = TaskSpec{DomainHint: DomainID(1 + i%3), ProcTime: 1}
	}
	if _, err := primary.CreateTasks(specs...); err != nil {
		t.Fatal(err)
	}
	return primary
}

// streamObservations submits n single-observation records to the primary.
func streamObservations(t *testing.T, primary *Server, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		o := Observation{Task: TaskID(i % 50), User: UserID(i % 8), Value: float64(i%50) + float64(i%8)/10}
		if err := primary.SubmitObservations(o); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

// TestFollowerHaltsOnJSONRecord: a JSON record shipped to a follower, as a
// primary on an older build would ship one, halts the pull loop with
// ErrBadState naming its LSN. The follower neither journals nor applies it,
// so it stays the primary's state at the record before.
func TestFollowerHaltsOnJSONRecord(t *testing.T) {
	primary := hintedPrimary(t)
	streamObservations(t, primary, 0, 5)
	want, before := saveBytes(t, primary), primary.DurabilityStats().LastLSN
	var lsn uint64
	if err := primary.st.Write(func(tx *rcu.Tx[serverState]) (err error) {
		lsn, err = tx.W.journal.AppendBuffered([]byte(`{"t":"add_users","users":[{"ID":9,"Capacity":2}]}`))
		tx.W.lastLSN = lsn
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := primary.journalCommit(lsn, nil); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFollower(replTestServer(t, primary).URL, fastFollowerOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not halt on the JSON record (status %+v)", f.ReplicationStatus())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Err(); !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), fmt.Sprintf("record %d", lsn)) {
		t.Errorf("follower halted with %v, want ErrBadState naming record %d", err, lsn)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.Server().st.Load().lastLSN; got != before {
		t.Errorf("follower stopped at LSN %d, want %d", got, before)
	}
	if got := saveBytes(t, f.Server()); !bytes.Equal(got, want) {
		t.Error("halted follower diverged from the primary's state before the JSON record")
	}
}

// TestFollowerFailedAppendFailsNode: a follower whose own journal refuses a
// shipped record has failed as a primary whose append fails has. The pull
// loop halts with an error wrapping ErrJournalFailed, and
// eta2_server_journal_failed reads 1. The follower's directory is removed
// and the primary ships a record larger than the follower's segment, so the
// append that opens the next segment is the one that fails.
func TestFollowerFailedAppendFailsNode(t *testing.T) {
	mJournalFailed.Set(0) // process-global: another test may have set it
	primary := hintedPrimary(t)
	dir := t.TempDir()
	f, err := OpenFollower(replTestServer(t, primary).URL, fastFollowerOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, primary.DurabilityStats().LastLSN)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	many := make([]User, 100)
	for i := range many {
		many[i] = User{ID: UserID(100 + i), Capacity: 4}
	}
	if err := primary.AddUsers(many...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not halt on a failed append (status %+v)", f.ReplicationStatus())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Err(); !errors.Is(err, ErrJournalFailed) {
		t.Errorf("follower halted with %v, want an error wrapping ErrJournalFailed", err)
	}
	if v := mJournalFailed.Value(); v != 1 {
		t.Errorf("eta2_server_journal_failed = %v after the follower's append failed, want 1", v)
	}
}

// TestFollowerCompactAndSaveWhileStreaming hammers the follower's
// embedded server with SaveStateBinary and Compact while the pull loop applies
// a long observation stream and a close-step. Both encode the published
// state and neither takes s.mu to do it, so this is race-clean (run under
// -race), the follower still ends bit-identical to the primary — and every
// snapshot saved on the way, mid-batch or not, is one LoadServer accepts
// and is, byte for byte, the primary's state at the LSN the follower had
// published when it was saved.
func TestFollowerCompactAndSaveWhileStreaming(t *testing.T) {
	primary := hintedPrimary(t)
	ts := replTestServer(t, primary)
	f, err := OpenFollower(ts.URL, fastFollowerOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A save is labelled by the state published around it: the same pointer
	// before and after means that is the state it encoded.
	type labelled struct {
		lsn   uint64
		bytes []byte
	}
	var saved []labelled
	var midStream atomic.Int64
	setupLSN := primary.DurabilityStats().LastLSN
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
			}
			st := f.Server().st.Load()
			var buf bytes.Buffer
			if err := f.Server().SaveStateBinary(&buf); err != nil {
				t.Errorf("SaveStateBinary on follower: %v", err)
				return
			}
			if f.Server().st.Load() == st {
				saved = append(saved, labelled{st.lastLSN, buf.Bytes()})
				if st.lastLSN > setupLSN {
					midStream.Add(1)
				}
			}
			if err := f.Server().Compact(); err != nil {
				t.Errorf("Compact on follower: %v", err)
				return
			}
		}
	}()

	// The primary's states are immutable once published: holding the pointer
	// is holding the state at that LSN. Stream until the follower has been
	// caught mid-stream a few times.
	primaryAt := map[uint64]*serverState{setupLSN: primary.st.Load()}
	for i := 0; i < 2000 || (midStream.Load() < 3 && i < 20000); i++ {
		streamObservations(t, primary, i, 1)
		st := primary.st.Load()
		primaryAt[st.lastLSN] = st
	}
	if _, err := primary.CloseTimeStep(); err != nil {
		t.Fatal(err)
	}
	closed := primary.st.Load()
	primaryAt[closed.lastLSN] = closed
	waitApplied(t, f, closed.lastLSN)
	close(stop)
	wg.Wait()

	if got, want := saveBytes(t, f.Server()), saveBytes(t, primary); string(got) != string(want) {
		t.Fatal("follower diverged from primary under concurrent SaveStateBinary/Compact")
	}
	if fst := f.Server().DurabilityStats(); fst.Compactions == 0 || fst.SnapshotLSN > fst.LastLSN {
		t.Fatalf("follower durability after the stream: %+v", fst)
	}
	if midStream.Load() == 0 {
		t.Fatalf("none of %d saves caught the follower between LSN %d and the end of the stream", len(saved), setupLSN)
	}
	for _, s := range saved {
		if _, err := LoadServer(bytes.NewReader(s.bytes)); err != nil {
			t.Fatalf("snapshot saved by the follower at LSN %d: %v", s.lsn, err)
		}
		// Below setupLSN the follower was still applying hintedPrimary's own
		// records, whose states nobody held.
		if want, ok := primaryAt[s.lsn]; ok && !bytes.Equal(s.bytes, encodedState(want)) {
			t.Fatalf("snapshot saved by the follower at LSN %d differs from the primary's state at that LSN", s.lsn)
		} else if !ok && s.lsn > setupLSN {
			t.Fatalf("follower published LSN %d, which the primary never published", s.lsn)
		}
	}
}

// TestFollowerCompactMidStreamRestart pins "snapshot label == snapshot
// content" on a follower: Compact runs while the pull loop is applying a
// stream, and a node recovered from that snapshot plus the WAL tail behind
// it — a crash image first, then the gracefully closed directory — must
// resume at the pre-close frontier with bit-identical state, without
// refetching a single record or bootstrapping. A snapshot labelled one
// record off its content would replay the tail into duplicated or
// missing observations.
func TestFollowerCompactMidStreamRestart(t *testing.T) {
	primary := hintedPrimary(t)
	// Record every log cursor and snapshot fetch the primary serves.
	var mu sync.Mutex
	var cursors []uint64
	snapshots := 0
	mux := http.NewServeMux()
	mux.HandleFunc(repl.LogPath, func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		mu.Lock()
		cursors = append(cursors, from)
		mu.Unlock()
		repl.ServeLog(primary, w, r)
	})
	mux.HandleFunc(repl.SnapshotPath, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		snapshots++
		mu.Unlock()
		repl.ServeSnapshot(primary, w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	fdir := t.TempDir()
	f, err := OpenFollower(ts.URL, fastFollowerOptions(fdir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }()

	// Compact in a loop while the stream flows, stop, then ship one more
	// record so the last snapshot is guaranteed a WAL tail behind it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			// Compact before honouring stop: the stream can finish before
			// this goroutine is first scheduled.
			if err := f.Server().Compact(); err != nil {
				t.Errorf("Compact on follower: %v", err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	streamObservations(t, primary, 0, 600)
	close(stop)
	wg.Wait()
	streamObservations(t, primary, 600, 1)
	frontier := primary.DurabilityStats().LastLSN
	waitApplied(t, f, frontier)
	want := saveBytes(t, primary)
	if fst := f.Server().DurabilityStats(); fst.Compactions == 0 || fst.SnapshotLSN >= frontier {
		t.Fatalf("want a mid-stream snapshot behind frontier %d, got %+v", frontier, fst)
	}

	reopen := func(name, dir string) *Follower {
		t.Helper()
		mu.Lock()
		cursors, snapshots = nil, 0
		mu.Unlock()
		r, err := OpenFollower(ts.URL, fastFollowerOptions(dir))
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if got := r.ReplicationStatus().AppliedLSN; got != frontier {
			t.Fatalf("%s: resumed at LSN %d, want %d", name, got, frontier)
		}
		if got := saveBytes(t, r.Server()); string(got) != string(want) {
			t.Fatalf("%s: recovered state diverged from primary", name)
		}
		// Let the pull loop poll at least once before reading its cursors.
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			n := len(cursors)
			mu.Unlock()
			if n > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: pull loop never polled", name)
			}
			time.Sleep(2 * time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, from := range cursors {
			if from != frontier+1 {
				t.Fatalf("%s: refetched from LSN %d, want cursor %d only", name, from, frontier+1)
			}
		}
		if snapshots != 0 || r.ReplicationStatus().SnapshotBootstraps != 0 {
			t.Fatalf("%s: bootstrapped (%d snapshot fetches)", name, snapshots)
		}
		return r
	}

	// Crash image: the mid-stream snapshot plus the WAL tail behind it.
	// The pull loop is idle (caught up), so the copy sees a quiet log.
	crashed := reopen("crash image", copyDataDir(t, fdir))
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	// Graceful restart from the follower's own directory.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f = reopen("restart", fdir)
}

// cutWriter passes the first limit body bytes through, then aborts the
// response: the client sees a log batch torn mid-stream.
type cutWriter struct {
	http.ResponseWriter
	limit int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) > c.limit {
		c.ResponseWriter.Write(p[:c.limit])
		c.ResponseWriter.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	c.limit -= len(p)
	return c.ResponseWriter.Write(p)
}

// TestFollowerResumesAfterTornBatch tears the first log response in the
// middle of the stream: the records that arrived whole are applied and
// finished like any batch, and the next fetch resumes right behind them —
// no refetch of applied LSNs (which would read as a gap), no bootstrap.
func TestFollowerResumesAfterTornBatch(t *testing.T) {
	primary := hintedPrimary(t)
	streamObservations(t, primary, 0, 200)
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc(repl.LogPath, func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { w = &cutWriter{ResponseWriter: w, limit: 4000} })
		repl.ServeLog(primary, w, r)
	})
	mux.HandleFunc(repl.SnapshotPath, func(w http.ResponseWriter, r *http.Request) { repl.ServeSnapshot(primary, w, r) })
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	f, err := OpenFollower(ts.URL, fastFollowerOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitApplied(t, f, primary.DurabilityStats().LastLSN)
	if got, want := saveBytes(t, f.Server()), saveBytes(t, primary); string(got) != string(want) {
		t.Fatal("follower diverged after a torn batch")
	}
	rs := f.ReplicationStatus()
	if rs.Reconnects == 0 || rs.SnapshotBootstraps != 0 {
		t.Fatalf("want the torn batch retried without a bootstrap, got %+v", rs)
	}
}
