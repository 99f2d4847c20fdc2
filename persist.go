package eta2

import (
	"errors"
	"fmt"
	"io"

	"eta2/internal/loop"
)

// stateVersion guards against loading snapshots from incompatible builds.
const stateVersion = 1

// SaveStateBinary serializes the server's full state with the
// length-prefixed, CRC-checked binary codec — the format compaction uses
// for its snapshot files, and the one LoadServer reads. It encodes the
// published state, so it takes no server lock and never waits on a writer;
// on a follower in the middle of a shipped batch that is the state as of the
// last published record. The embedding model is not included — only the task
// vectors derived from it — so a restored server needs WithEmbedder again
// only to create NEW described tasks; see LoadServer.
func (s *Server) SaveStateBinary(w io.Writer) error {
	return encodeStateBinary(w, s.loadState())
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

// restoreServer materializes a decoded snapshot: its persistable fields
// become the new server's master state as they are. The snapshot's own
// alpha/gamma/epsilon are the base configuration; the caller's options are
// applied on top and win.
func restoreServer(st *serverState, opts ...Option) (*Server, error) {
	allOpts := append([]Option{
		WithAlpha(st.alpha),
		WithGamma(st.gamma),
		WithEpsilon(st.epsilon),
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

	// Through the front door: it validates the users, indexes them and binds
	// their names in the intern table.
	if err := s.AddUsers(st.users...); err != nil {
		return nil, err
	}

	s.tasks = st.tasks
	s.domainOf = st.domainOf
	s.pending = st.pending
	s.truths = st.truths
	s.day = st.day
	s.observations = st.observations
	s.store = st.store

	// newServer's empty identifier stands when the snapshot brought no
	// clustering state. RestoreDomains copies what its engine goes on to
	// write, so the decoded value stays the immutable capture of it.
	if st.cluster != nil {
		s.domains, err = loop.RestoreDomains(*st.cluster, s.cfg.embedder)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadState, err)
		}
		s.cluster = st.cluster
	}
	// Not yet shared with other goroutines, so publishing without the lock
	// is safe; installs the restored state for the lock-free query surface.
	s.publishLocked()
	return s, nil
}
