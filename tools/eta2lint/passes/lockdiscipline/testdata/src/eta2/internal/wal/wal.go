// Package wal is a stub of the real WAL with the durability-facing
// method set the analyzers classify.
package wal

type Log struct{}

func (l *Log) Append(b []byte) (uint64, error)         { return 0, nil }
func (l *Log) Commit(lsn uint64) error                 { return nil }
func (l *Log) CommitReported(lsn uint64) (bool, error) { return false, nil }
func (l *Log) Sync() error                             { return nil }

// Stats is the cheap shape query: it takes the log's own mutex, never an
// fsync, so it may run under the server lock.
type Stats struct{ Bytes int64 }

func (l *Log) Stats() Stats { return Stats{} }
