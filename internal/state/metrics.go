package state

import "eta2/internal/obs"

// mSnapshotBytes observes every snapshot Encode writes.
var (
	mSnapshotBytes = obs.Default().HistogramVec("eta2_server_snapshot_bytes",
		"Encoded size of persisted state snapshots, by codec.",
		obs.ExpBuckets(4096, 4, 10), obs.Label("codec", "binary"))
	mSnapshotBytesBinary = mSnapshotBytes.With("binary")
)
