package eta2

import (
	"errors"
	"fmt"
	"io"

	"eta2/internal/cluster"
	"eta2/internal/core"
	"eta2/internal/loop"
	"eta2/internal/semantic"
	"eta2/internal/truth"
)

// stateVersion guards against loading snapshots from incompatible builds.
const stateVersion = 1

// snapshotState is the serializable snapshot of a Server: exactly what the
// binary codec in codec.go writes and reads (SaveStateBinary, compaction's
// snapshot-<lsn>.bin files, follower bootstrap) — the server's one encoding.
// The embedding model itself is not serialized — only the task vectors
// derived from it — so a restored server needs WithEmbedder again only to
// create NEW described tasks.
type snapshotState struct {
	Version int

	Alpha   float64
	Gamma   float64
	Epsilon float64

	// Users, in registration order: listed (a decoded state), or the server's
	// own order and frozen map (a captured one), joined by the encoder.
	Users     []core.User
	userOrder []UserID
	users     map[UserID]User

	Tasks []core.Task
	// DomainOf and Truths are the per-task columns, indexed by task id:
	// len(DomainOf) == len(Tasks), len(Truths) <= len(Tasks), and a truth
	// with Observations == 0 is "no estimate" and is not encoded.
	DomainOf []DomainID
	Pending  []TaskID
	Truths   []TruthEstimate
	Day      int

	Observations []Observation

	Store truth.StoreState

	// Clustering state; empty when the server runs without an embedder.
	Cluster    *cluster.EngineState
	Vectors    []semantic.TaskVector
	ItemToTask []TaskID
}

// SaveStateBinary serializes the server's full state with the
// length-prefixed, CRC-checked binary codec — the format compaction uses
// for its snapshot files, and the one LoadServer reads. The embedding model
// is not included; see LoadServer.
func (s *Server) SaveStateBinary(w io.Writer) error {
	s.mu.RLock()
	st := s.persistStateLocked()
	s.mu.RUnlock()
	return encodeStateBinary(w, st)
}

// persistStateLocked materializes the serializable snapshot struct.
// Callers hold s.mu (read or write). It copies headers and references —
// only the clustering engine state is a deep copy — and the result remains
// valid after the lock is released: the slices are append-only below their
// captured headers (a writer that changes an entry of domainOf or truths
// swaps in a copy; DESIGN.md §11 rule 2), and the user map and the truth
// store's table are replace-on-write — so compaction can encode it with no
// lock held.
func (s *Server) persistStateLocked() snapshotState {
	st := snapshotState{
		Version:      stateVersion,
		Alpha:        s.cfg.alpha,
		Gamma:        s.cfg.gamma,
		Epsilon:      s.cfg.epsilon,
		Tasks:        s.tasks,
		DomainOf:     s.domainOf,
		Pending:      s.pending,
		Truths:       s.truths,
		Day:          s.day,
		Observations: s.observations,
		Store:        s.store.State(),
		userOrder:    s.userOrder,
		users:        s.users,
	}
	if s.domains != nil {
		ds := s.domains.State()
		st.Cluster, st.Vectors, st.ItemToTask = &ds.Cluster, ds.Vectors, ds.Tasks
	}
	return st
}

// ErrBadState is returned when a snapshot cannot be restored.
var ErrBadState = errors.New("eta2: invalid server state")

// LoadServer restores a Server from a SaveStateBinary snapshot. Pass
// WithEmbedder if the server should be able to create new described tasks
// after the restore; the snapshot's own task vectors are reused either
// way, so clustering state survives even across embedder retrains (new
// tasks are then placed with the NEW embedder's geometry — retrain with
// the same corpus and seed to keep distances consistent).
//
// WithDurability has no effect here: LoadServer restores exactly the
// supplied snapshot and nothing else. To restore from a durable data
// directory (snapshot + write-ahead-log replay), pass WithDurability to
// NewServer instead.
func LoadServer(r io.Reader, opts ...Option) (*Server, error) {
	st, err := decodeStateBinary(r)
	if err != nil {
		return nil, err
	}
	return restoreServer(st, opts...)
}

// restoreServer materializes a decoded snapshot. The snapshot's own
// alpha/gamma/epsilon are the base configuration; the caller's options
// are applied on top and win.
func restoreServer(st snapshotState, opts ...Option) (*Server, error) {
	allOpts := append([]Option{
		WithAlpha(st.Alpha),
		WithGamma(st.Gamma),
		WithEpsilon(st.Epsilon),
	}, opts...)
	cfg, err := buildConfig(allOpts...)
	if err != nil {
		return nil, err
	}
	// newServer, not NewServer: a WithDurability option in opts must not
	// recurse into recovery — openDurable drives this path itself.
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}

	// One batch, not per-user calls: AddUsers copies the user map per call
	// (copy-on-write for the lock-free readers), so per-user restores
	// would be quadratic in the user count.
	if err := s.AddUsers(st.Users...); err != nil {
		return nil, err
	}

	s.tasks = st.Tasks
	s.pending = st.Pending
	s.day = st.Day
	s.observations = st.Observations
	s.domainOf = st.DomainOf
	s.truths = st.Truths

	store, err := truth.RestoreStore(st.Store)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadState, err)
	}
	s.store = store

	if st.Cluster != nil {
		s.domains, err = loop.RestoreDomains(loop.DomainsState{Cluster: *st.Cluster, Vectors: st.Vectors, Tasks: st.ItemToTask}, s.cfg.embedder)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadState, err)
		}
	}
	// Not yet shared with other goroutines, so publishing without the lock
	// is safe; installs the restored state for the lock-free query surface.
	s.publishLocked()
	return s, nil
}
