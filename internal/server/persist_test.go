package server

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTenantsFileBytesPinned pins the exact tenants.json a drain writes
// after two tenants' cold runs, so a change to the ledger's schema or to
// how the file is written shows here.
func TestTenantsFileBytesPinned(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Model: testOracle(), StateDir: dir})
	for _, run := range []struct {
		tenant string
		kinds  []string
	}{{"acme", []string{"tool", "toy"}}, {"zeta", []string{"gadget"}}} {
		st, err := srv.Submit(context.Background(), SubmitRequest{
			Tenant: run.tenant, Spec: toolSpec(), Tables: kindTable(run.tenant, 4, run.kinds...),
		})
		if err != nil || st.State != JobDone {
			t.Fatalf("%s: err %v, state %+v", run.tenant, err, st)
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, TenantsFileName))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "tenants": {
    "acme": {
      "prompt_tokens": 54,
      "completion_tokens": 2,
      "calls": 2,
      "dollars": 0.000085
    },
    "zeta": {
      "prompt_tokens": 28,
      "completion_tokens": 1,
      "calls": 1,
      "dollars": 0.000044000000000000006
    }
  }
}
`
	if string(b) != want {
		t.Fatalf("drain wrote %s:\n%s\npinned:\n%s", TenantsFileName, b, want)
	}
}

// TestTenantsFileMode: tenants.json has mode 0644, as every state file.
func TestTenantsFileMode(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Model: testOracle(), StateDir: dir})
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, TenantsFileName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("%s has mode %v, want 0644", TenantsFileName, st.Mode())
	}
}

// TestDrainFailedTenantsWriteLeavesNoTemp: when tenants.json cannot be
// replaced — here a non-empty directory holds its name — Drain reports the
// error and leaves no temp file in the state directory.
func TestDrainFailedTenantsWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Model: testOracle(), StateDir: dir})
	if err := srv.StateError(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, TenantsFileName, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err == nil || !strings.Contains(err.Error(), "tenant spend") {
		t.Fatalf("Drain over a blocked %s: err %v, want the persisting error", TenantsFileName, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("Drain left %s behind", e.Name())
		}
	}
}
