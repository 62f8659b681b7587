//go:build linux || darwin

package workflow

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/llm"
)

// TestStateLockOneWriter: while a layer holds a state directory, a second
// OpenState on it — or a bare OpenCacheLog, as cache compaction does —
// fails with ErrStateLocked, before and after the holder compacts the
// log; once the holder's CloseState runs, the directory opens again.
func TestStateLockOneWriter(t *testing.T) {
	dir := t.TempDir()
	holder := NewExecLayer()
	if _, err := holder.OpenState(dir); err != nil {
		t.Fatalf("OpenState: %v", err)
	}
	second := NewExecLayer()
	refused := func(when string) {
		t.Helper()
		if _, err := second.OpenState(dir); !errors.Is(err, ErrStateLocked) {
			t.Fatalf("%s: second OpenState = %v, want ErrStateLocked", when, err)
		}
		if second.HasState() {
			t.Fatalf("%s: a refused OpenState attached state", when)
		}
		if _, err := OpenCacheLog(filepath.Join(dir, CacheLogName)); !errors.Is(err, ErrStateLocked) {
			t.Fatalf("%s: second OpenCacheLog = %v, want ErrStateLocked", when, err)
		}
	}
	refused("live holder")

	// Compaction replaces cache.log by rename; the lock beside it stays.
	holder.Cache().Put("m", "p", llm.Response{Text: "t", Model: "m"})
	if err := holder.CompactState(); err != nil {
		t.Fatalf("CompactState: %v", err)
	}
	refused("after compaction")

	if err := holder.CloseState(); err != nil {
		t.Fatalf("CloseState: %v", err)
	}
	if _, err := second.OpenState(dir); err != nil {
		t.Fatalf("OpenState after the holder closed: %v", err)
	}
	if size, _ := second.Cache().Stats(); size != 1 {
		t.Fatalf("successor replayed %d entries, want 1", size)
	}
	if err := second.CloseState(); err != nil {
		t.Fatal(err)
	}
}

// stateLockChild names the state dir for TestStateLockAcrossProcesses'
// child process, and stateLockWant what the child must see opening it;
// the test binary run with them set is the child.
const (
	stateLockChild = "WORKFLOW_TEST_STATE_LOCK_DIR"
	stateLockWant  = "WORKFLOW_TEST_STATE_LOCK_WANT"
)

// TestStateLockAcrossProcesses: a child process opening a state directory
// this process holds gets ErrStateLocked; after CloseState it opens it,
// and exits holding it without closing — its exit releases the lock, so
// this process opens the directory again.
func TestStateLockAcrossProcesses(t *testing.T) {
	if dir := os.Getenv(stateLockChild); dir != "" {
		_, err := NewExecLayer().OpenState(dir)
		switch want := os.Getenv(stateLockWant); {
		case want == "locked" && !errors.Is(err, ErrStateLocked):
			t.Fatalf("child OpenState = %v, want ErrStateLocked", err)
		case want == "open" && err != nil:
			t.Fatalf("child OpenState = %v, want success", err)
		}
		return // an opened layer is left holding the lock until exit
	}
	child := func(dir, want string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestStateLockAcrossProcesses$")
		cmd.Env = append(os.Environ(), stateLockChild+"="+dir, stateLockWant+"="+want)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child expecting %q: %v\n%s", want, err, out)
		}
	}
	dir := t.TempDir()
	layer := NewExecLayer()
	if _, err := layer.OpenState(dir); err != nil {
		t.Fatalf("OpenState: %v", err)
	}
	child(dir, "locked")
	if err := layer.CloseState(); err != nil {
		t.Fatalf("CloseState: %v", err)
	}
	child(dir, "open")
	if _, err := layer.OpenState(dir); err != nil {
		t.Fatalf("OpenState after the child exited: %v", err)
	}
	layer.CloseState()
}
