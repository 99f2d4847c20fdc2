package eta2

import (
	"time"

	"eta2/internal/state"
	"eta2/internal/wal"
)

// serverState is the one declaration of the server's state (DESIGN.md §11),
// held in the Server's rcu.Cell: writers change the working copy a Write hands
// them, and every successful Write publishes a copy of it. A reader — a
// query, SaveStateBinary, a compaction, a follower bootstrap — loads the
// published pointer once and reads freely: what the lock-free query surface
// reads is what the snapshot codec writes. The columns are the embedded
// state.State, which this package reaches only through its methods; what
// serverState declares beside it belongs to the node and survives a snapshot
// bootstrap that replaces the State.
//
// journal is a handle, not data: wal.Log has its own synchronization and
// tolerates Stats/Commit after Close. It is here so DurabilityStats and
// journalCommit run without taking the writer lock. Nil on an in-memory
// server; attached in either replication role — a primary's own mutations
// write it, a follower's pull loop feeds it the primary's records verbatim.
type serverState struct {
	state.State

	journal        *wal.Log
	journalDir     string
	lastLSN        uint64 // the newest record applied to the State: a capture is labelled with exactly the LSN it contains
	snapLSN        uint64
	compactions    int
	lastCompaction time.Time

	// Replication role (see replication.go). rolePrimary (the zero value)
	// accepts writes; roleFollower rejects public mutations with
	// *FollowerWriteError and applies shipped records through applyEvent.
	// role only ever transitions follower → primary (promotion), never back,
	// so a writability check against one published state cannot be
	// invalidated into accepting a write on a node that is still a follower.
	role        serverRole
	primaryAddr string
}
