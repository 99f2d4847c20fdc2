package main

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"eta2/internal/embedding"
	"eta2/internal/wal"
)

// failAfter passes n bytes through and then fails every write: a disk that
// fills, or a process killed, half-way through Save.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFailedDirSyncFailsModelWrite: a rename the directory never synced may
// vanish in a crash, so writeFileAtomic reports a failed directory sync.
func TestFailedDirSyncFailsModelWrite(t *testing.T) {
	syncDir = func(string) error { return syscall.EIO }
	defer func() { syncDir = wal.SyncDir }()
	path := filepath.Join(t.TempDir(), "model.json")
	write := func(w io.Writer) error { _, err := io.WriteString(w, "{}"); return err }
	if err := writeFileAtomic(path, write); !errors.Is(err, syscall.EIO) {
		t.Fatalf("writeFileAtomic with a failing directory sync = %v, want EIO", err)
	}
}

// A fresh path gets the builtin model and is then loaded from; a write that
// dies half-way leaves no file where there was none and the whole old file
// where there was one, and no temp file either way.
func TestModelFileIsWholeOrAbsent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")

	builtin, err := embedding.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := builtin.Save(&want); err != nil {
		t.Fatal(err)
	}
	half := func(w io.Writer) error { return builtin.Save(&failAfter{w: w, n: want.Len() / 2}) }

	if err := writeFileAtomic(path, half); !errors.Is(err, errDiskFull) {
		t.Fatalf("failed write: got %v, want errDiskFull", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("failed write into an empty directory left %v", names)
	}

	if _, err := loadModel(path); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Fatal("the file a fresh path gets is not the builtin model's Save bytes")
	}

	if err := writeFileAtomic(path, half); !errors.Is(err, errDiskFull) {
		t.Fatalf("failed overwrite: got %v, want errDiskFull", err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "model.json" {
		t.Fatalf("failed overwrite left %v", names)
	}
	loaded, err := loadModel(path)
	if err != nil {
		t.Fatalf("model file after a failed overwrite: %v", err)
	}
	var got bytes.Buffer
	if err := loaded.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("loaded model does not save the bytes it was loaded from")
	}
}

// Something at the path that cannot be opened is an error naming the path,
// and is still there afterwards: only a missing file is answered by writing
// the builtin model (whose rename would replace whatever the path held).
func TestUnopenableModelIsNotRetrainedOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	// A link to itself: open fails with ELOOP for every user, root included.
	if err := os.Symlink("model.json", path); err != nil {
		t.Skip(err)
	}
	_, err := loadModel(path)
	var pe *fs.PathError
	if !errors.As(err, &pe) || pe.Path != path || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want the open error naming %s", err, path)
	}
	if fi, err := os.Lstat(path); err != nil || fi.Mode()&fs.ModeSymlink == 0 {
		t.Fatalf("what was at the path was replaced: %v, %v", fi, err)
	}
}
