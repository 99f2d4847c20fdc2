// Package repl implements primary/follower replication over the WAL:
// the primary ships committed records as length-prefixed binary frames
// (the exact on-disk WAL record format, CRC32C included) and serves its
// latest snapshot for bootstrap; a follower pulls with a resumable LSN
// cursor and applies records through the same replay path recovery uses,
// so replica state is bit-identical to the primary at every LSN.
//
// Wire protocol (see DESIGN.md §12):
//
//	GET /v1/repl/log?from=<lsn>&wait=<duration>&max=<n>
//	  200: application/octet-stream, concatenated WAL frames with
//	       LSN >= from, at most n of them; X-Eta2-Repl-Frontier carries
//	       the primary's committed frontier at serve time. When the
//	       caller is caught up, the primary parks up to wait before
//	       answering (long poll), so a quiet system costs one idle
//	       request per wait window, not a busy loop.
//	  410: the cursor names compacted records — re-bootstrap.
//	  503: this node cannot serve the log (not durable, or a follower).
//	GET /v1/repl/snapshot
//	  200: application/octet-stream, the binary snapshot codec;
//	       X-Eta2-Repl-Snapshot-Lsn names the LSN the snapshot covers.
package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"eta2/internal/wal"
)

// Route paths and response headers shared by both sides of the protocol.
const (
	LogPath      = "/v1/repl/log"
	SnapshotPath = "/v1/repl/snapshot"

	HeaderFrontier    = "X-Eta2-Repl-Frontier"
	HeaderSnapshotLSN = "X-Eta2-Repl-Snapshot-Lsn"
	// HeaderTrace carries serialized write traces (internal/trace wire
	// JSON). On a log response each value is one completed primary-side
	// trace whose record is covered by the response's frontier; on a write
	// request it forces that request to be traced.
	HeaderTrace = "X-Eta2-Trace"
)

const (
	// DefaultMaxRecords bounds one log response when the caller does not
	// ask for a limit.
	DefaultMaxRecords = 4096
	// maxMaxRecords caps the caller-supplied limit.
	maxMaxRecords = 1 << 16
	// MaxWait caps the long-poll window so a dead follower's request
	// cannot pin a connection past the server's write timeout.
	MaxWait = 30 * time.Second
	// maxBatchBytes bounds the buffered frame batch of one response.
	maxBatchBytes = 4 << 20
)

// Source is the primary-side view a server must expose to ship its log.
// *eta2.Server implements it; any method may fail when the node has no
// durable journal to ship from.
type Source interface {
	// CommittedLSN returns the shipping frontier.
	CommittedLSN() (uint64, error)
	// WaitCommitted blocks until the frontier exceeds after or the
	// timeout elapses, returning the frontier either way.
	WaitCommitted(after uint64, timeout time.Duration) (uint64, error)
	// ReadCommitted streams committed records in [from, frontier] to fn;
	// it returns wal.ErrCompacted when from is below the oldest retained
	// record.
	ReadCommitted(from uint64, max int, fn func(lsn uint64, payload []byte) error) (int, error)
	// CaptureReplicationSnapshot captures a consistent snapshot and
	// returns the LSN it covers plus a writer that encodes it.
	CaptureReplicationSnapshot() (lsn uint64, write func(io.Writer) error, err error)
}

// TraceSource is optionally implemented by a Source that records write
// traces: completed traces for records at or below upTo are drained and
// shipped as X-Eta2-Trace headers, continuing the primary's trace on the
// follower. Traces ride every log response — including empty long-poll
// answers — because a record's trace may only complete (the submitter's
// fsync wait and HTTP span end) after the record itself has shipped.
type TraceSource interface {
	TakeShippedTraces(upTo uint64, max int) [][]byte
}

// maxTracesPerResponse bounds X-Eta2-Trace headers on one log response.
const maxTracesPerResponse = 8

// errBatchFull aborts a ReadCommitted scan once the response buffer is
// large enough; the records already buffered still ship.
var errBatchFull = errors.New("repl: batch byte budget reached")

// writeError mirrors the httpapi error shape so every endpoint on the
// server speaks the same JSON envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: msg})
}

// ServeLog answers GET /v1/repl/log from src.
func ServeLog(src Source, w http.ResponseWriter, r *http.Request) {
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil || parsed == 0 {
			writeError(w, http.StatusBadRequest, "from must be a positive LSN")
			return
		}
		from = parsed
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil || parsed < 0 {
			writeError(w, http.StatusBadRequest, "wait must be a non-negative duration")
			return
		}
		wait = min(parsed, MaxWait)
	}
	maxRecords := DefaultMaxRecords
	if v := r.URL.Query().Get("max"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, "max must be a positive record count")
			return
		}
		maxRecords = min(parsed, maxMaxRecords)
	}

	frontier, err := src.CommittedLSN()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if frontier < from && wait > 0 {
		if frontier, err = src.WaitCommitted(from-1, wait); err != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	}

	// Buffer the batch so the status code (410 on a compacted cursor) is
	// still ours to choose after the scan, and cap it by bytes as well as
	// records — a burst of large payloads must not balloon one response.
	var buf bytes.Buffer
	n, err := src.ReadCommitted(from, maxRecords, func(lsn uint64, payload []byte) error {
		if buf.Len() >= maxBatchBytes {
			return errBatchFull
		}
		return wal.WriteFrame(&buf, lsn, payload)
	})
	if err != nil && !errors.Is(err, errBatchFull) {
		if errors.Is(err, wal.ErrCompacted) {
			writeError(w, http.StatusGone, err.Error())
			return
		}
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set(HeaderFrontier, strconv.FormatUint(frontier, 10))
	if ts, ok := src.(TraceSource); ok {
		for _, data := range ts.TakeShippedTraces(frontier, maxTracesPerResponse) {
			w.Header().Add(HeaderTrace, string(data))
			mShippedTraces.Inc()
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	if _, werr := w.Write(buf.Bytes()); werr == nil {
		mShippedRecords.Add(uint64(n))
		mShippedBytes.Add(uint64(buf.Len()))
	}
}

// ServeSnapshot answers GET /v1/repl/snapshot from src. The snapshot body
// is self-validating (length-prefixed, CRC32C), so a connection torn
// mid-stream surfaces on the client as a decode failure, never as a
// silently short bootstrap.
func ServeSnapshot(src Source, w http.ResponseWriter, r *http.Request) {
	lsn, write, err := src.CaptureReplicationSnapshot()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set(HeaderSnapshotLSN, strconv.FormatUint(lsn, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := write(w); err == nil {
		mSnapshotsServed.Inc()
	}
}

// readErrorBody extracts the JSON error envelope from a non-200 response,
// falling back to the raw status.
func readErrorBody(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return resp.Status
}

// statusError is a non-200 answer from the primary that is neither a
// compaction signal nor a transport failure.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("repl: primary answered %d: %s", e.code, e.msg)
}
