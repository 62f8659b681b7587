package workflow

import (
	"bufio"
	"os"
	"path/filepath"
)

// stateFileMode is the mode of every state file: the cache log, its
// compacted replacement, index files and tenants.json alike.
const stateFileMode = 0o644

// ReplaceFile atomically replaces the file at path with the bytes write
// produces, through a buffered temp file beside it: flush, fsync, close,
// rename over path, then fsync the directory. A crash at any point leaves
// either the old file or the new one under path, never a torn one; a
// failure up to and including the rename leaves the old file and removes
// the temp file. The new
// file has mode 0644 whatever the old one had. write may ignore the
// writer's errors: a bufio.Writer keeps its first one, and the flush
// reports it.
func ReplaceFile(path string, write func(*bufio.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = f.Chmod(stateFileMode)
	if err == nil {
		err = write(w)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return SyncDir(dir)
}

// SyncDir flushes a directory's entries to stable storage, so a file
// renamed into it survives a crash under its new name; fsyncing the file
// alone makes its bytes durable, not the rename.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
