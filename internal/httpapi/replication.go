package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"eta2"
	"eta2/internal/repl"
)

// Replication endpoints (DESIGN.md §12). A primary serves its committed
// WAL records on /v1/repl/log and snapshot bootstraps on
// /v1/repl/snapshot; both sides answer /v1/admin/replication, and POST
// /v1/admin/promote flips a follower into a writable primary. The
// handler stays a thin front: streaming and long-polling live in
// internal/repl, role state in eta2.

// NewFollower wraps a replication follower in the HTTP API. The full
// query surface serves from the follower's replica state; mutations are
// rejected by the server itself with a 503 naming the primary, and the
// admin endpoints report the follower's replication view. After a
// successful POST /v1/admin/promote the same handler serves the node as
// a primary.
func NewFollower(f *eta2.Follower) *Handler {
	h := New(f.Server())
	h.follower = f
	return h
}

// ReplicationJSON is the wire form of a node's replication status.
type ReplicationJSON struct {
	Role               string  `json:"role"`
	Primary            string  `json:"primary,omitempty"`
	AppliedLSN         uint64  `json:"applied_lsn"`
	CommittedLSN       uint64  `json:"committed_lsn"`
	PrimaryFrontier    uint64  `json:"primary_frontier"`
	LagRecords         uint64  `json:"lag_records"`
	LagSeconds         float64 `json:"lag_seconds"`
	Connected          bool    `json:"connected"`
	Reconnects         uint64  `json:"reconnects"`
	SnapshotBootstraps uint64  `json:"snapshot_bootstraps"`
}

func replicationJSON(rs eta2.ReplicationStatus) ReplicationJSON {
	return ReplicationJSON{
		Role:               rs.Role,
		Primary:            rs.Primary,
		AppliedLSN:         rs.AppliedLSN,
		CommittedLSN:       rs.CommittedLSN,
		PrimaryFrontier:    rs.PrimaryFrontier,
		LagRecords:         rs.LagRecords,
		LagSeconds:         rs.LagSeconds,
		Connected:          rs.Connected,
		Reconnects:         rs.Reconnects,
		SnapshotBootstraps: rs.SnapshotBootstraps,
	}
}

func (h *Handler) handleReplLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	repl.ServeLog(h.server, w, r)
}

func (h *Handler) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	repl.ServeSnapshot(h.server, w, r)
}

func (h *Handler) handleReplication(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, replicationJSON(h.replicationStatus()))
}

func (h *Handler) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	if h.follower == nil {
		writeError(w, http.StatusConflict, errors.New("node is not a replication follower"))
		return
	}
	if err := h.follower.Promote(); err != nil {
		writeError(w, http.StatusConflict, fmt.Errorf("promote: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, replicationJSON(h.replicationStatus()))
}

// replicationStatus picks the richer follower view when this handler
// fronts a follower (pull-loop lag, connection state), the server's own
// otherwise.
func (h *Handler) replicationStatus() eta2.ReplicationStatus {
	if h.follower != nil {
		return h.follower.ReplicationStatus()
	}
	return h.server.ReplicationStatus()
}
