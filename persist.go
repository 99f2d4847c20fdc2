package eta2

import (
	"io"

	"eta2/internal/state"
)

// SaveStateBinary serializes the server's full state with the
// length-prefixed, CRC-checked binary codec — the format compaction uses
// for its snapshot files, and the one LoadServer reads. It encodes the
// published state, so it takes no server lock and never waits on a writer.
// The embedding model is not included — only the task vectors derived from
// it — so a restored server needs WithEmbedder again only to create NEW
// described tasks; see LoadServer.
func (s *Server) SaveStateBinary(w io.Writer) error {
	return s.st.Load().Encode(w)
}

// ErrBadState is returned when a snapshot cannot be restored.
var ErrBadState = state.ErrBadState

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
	st, err := state.Decode(r)
	if err != nil {
		return nil, err
	}
	return restoreServer(st, opts...)
}

// restoreState readies a decoded snapshot to serve: the snapshot's own
// alpha/gamma/epsilon are the base configuration, the caller's options are
// applied on top and win, and the clustering engine is rebuilt from its
// capture.
func restoreState(st state.State, opts []Option) (config, state.State, error) {
	alpha, gamma, epsilon := st.Params()
	cfg, err := buildConfig(append([]Option{WithAlpha(alpha), WithGamma(gamma), WithEpsilon(epsilon)}, opts...)...)
	if err != nil {
		return cfg, st, err
	}
	st, err = state.Restore(st, cfg.alpha, cfg.gamma, cfg.epsilon, cfg.embedder)
	return cfg, st, err
}

// restoreServer materializes a decoded snapshot as a new in-memory server
// (no recovery, no journal: a WithDurability option in opts must not recurse
// into recovery — openDurable drives this path itself).
func restoreServer(st state.State, opts ...Option) (*Server, error) {
	cfg, st, err := restoreState(st, opts)
	if err != nil {
		return nil, err
	}
	return publishServer(cfg, st)
}
