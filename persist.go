package eta2

import (
	"errors"
	"fmt"
	"io"

	"eta2/internal/loop"
	"eta2/internal/rcu"
)

// stateVersion guards against loading snapshots from incompatible builds.
const stateVersion = 1

// SaveStateBinary serializes the server's full state with the
// length-prefixed, CRC-checked binary codec — the format compaction uses
// for its snapshot files, and the one LoadServer reads. It encodes the
// published state, so it takes no server lock and never waits on a writer.
// The embedding model is not included — only the task vectors derived from
// it — so a restored server needs WithEmbedder again only to create NEW
// described tasks; see LoadServer.
func (s *Server) SaveStateBinary(w io.Writer) error {
	return encodeStateBinary(w, s.st.Load())
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

// restoreServer materializes a decoded snapshot: its persistable part becomes
// the new server's working state as it is — the decoder has already held every
// section to what this build writes and built the user indexes — and the
// clustering engine is rebuilt from its capture. The snapshot's own
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
	// RestoreDomains copies what its engine goes on to write, so the decoded
	// value stays the immutable capture of it.
	if st.cluster != nil {
		if s.domains, err = loop.RestoreDomains(*st.cluster, cfg.embedder); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadState, err)
		}
	}
	p := st.persisted
	p.alpha, p.gamma, p.epsilon = cfg.alpha, cfg.gamma, cfg.epsilon
	return s, s.update(func(tx *rcu.Tx[serverState]) error {
		if p.cluster == nil {
			p.cluster = tx.W.cluster // newServer's identifier's, which stands when the snapshot brought none
		}
		tx.W.persisted = p
		return nil
	})
}
