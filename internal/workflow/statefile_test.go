package workflow

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// assertOnly fails unless dir holds exactly the named entries: no temp
// file is left beside them.
func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, names) {
		t.Fatalf("%s holds %v, want only %v", dir, got, names)
	}
}

// assertMode fails unless the file at path has mode perm.
func assertMode(t *testing.T, path string, perm os.FileMode) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != perm {
		t.Fatalf("%s has mode %v, want %v", path, st.Mode().Perm(), perm)
	}
}

// TestReplaceFile pins the one replace path: a success installs the new
// bytes at mode 0644, and a failed write or a failed rename leaves the old
// file as it was and no temp file behind.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err := ReplaceFile(path, func(w *bufio.Writer) error {
		w.WriteString("partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write: err %v, want %v", err, boom)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("failed write: file holds %q (err %v), want the old bytes", b, err)
	}
	assertOnly(t, dir, "state")

	if err := ReplaceFile(path, func(w *bufio.Writer) error {
		_, err := w.WriteString("new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "new" {
		t.Fatalf("replace: file holds %q (err %v), want %q", b, err, "new")
	}
	assertMode(t, path, stateFileMode)
	assertOnly(t, dir, "state")

	// A non-empty directory under the target's name refuses the rename.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(blocked, func(w *bufio.Writer) error {
		_, err := w.WriteString("new")
		return err
	}); err == nil {
		t.Fatal("a rename over a non-empty directory succeeded")
	}
	assertOnly(t, dir, "blocked", "state")
	assertOnly(t, blocked, "inside")
}

// TestCompactKeepsLogMode: compaction replaces the log by rename, and the
// replacement has the mode the log was created with.
func TestCompactKeepsLogMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.log")
	lg := openLog(t, path)
	// Whatever the umask made of the creation mode, start from 0644.
	if err := os.Chmod(path, stateFileMode); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	fillCache(c, 10, 1)
	if err := lg.Compact(c); err != nil {
		t.Fatal(err)
	}
	assertMode(t, path, stateFileMode)
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".cache.log.tmp-*")); len(tmps) != 0 {
		t.Fatalf("compaction left %v behind", tmps)
	}
}
