//go:build linux

package wal

import (
	"os"
	"syscall"
)

// newDataSync returns f's commit sync: fdatasync, which flushes the data,
// and the file size only when the size is needed to read it. Everything
// the call needs is built here, once per segment, so a commit allocates
// nothing; one commit leader runs it at a time (Log.syncing). It goes
// through Control, never Fd(): once f is closed Control fails — its only
// failure, reported as os.ErrClosed — instead of syncing whichever file
// has reused the descriptor.
func newDataSync(f *os.File) func() error {
	conn, err := f.SyscallConn()
	if err != nil {
		return func() error { return err }
	}
	var serr error
	call := func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	}
	return func() error {
		if conn.Control(call) != nil {
			return os.ErrClosed
		}
		return serr
	}
}
