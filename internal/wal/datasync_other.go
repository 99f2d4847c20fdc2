//go:build !linux

package wal

import "os"

// newDataSync returns f's commit sync. Without a portable fdatasync that
// is the file's own fsync, which reports os.ErrClosed on a closed file.
func newDataSync(f *os.File) func() error { return f.Sync }
