package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// spoolTestRecord builds a distinguishable record so FIFO violations are
// attributable to a specific position. Its sequence key runs against the
// append order, so a spool that re-ordered by key would be caught.
func spoolTestRecord(i int) seqRecord {
	return seqRecord{int64(1<<20 - i), dataset.Record{
		ID: fmt.Sprintf("rec-%06d", i),
		Fields: []dataset.Field{
			{Name: "seq", Value: fmt.Sprintf("%d", i)},
			{Name: "payload", Value: fmt.Sprintf("value for record %d", i)},
		},
	}}
}

// drainSpool pops every record, checking FIFO order against the append
// sequence and that Len counts down correctly.
func drainSpool(t *testing.T, s *recordSpool, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := s.Len(); got != n-i {
			t.Fatalf("Len() = %d before pop %d of %d, want %d", got, i, n, n-i)
		}
		r, ok, err := s.Pop()
		if err != nil {
			t.Fatalf("Pop %d of %d: %v", i, n, err)
		}
		if !ok {
			t.Fatalf("Pop %d of %d: spool empty early", i, n)
		}
		want := spoolTestRecord(i)
		if r.rec.ID != want.rec.ID || r.seq != want.seq {
			t.Fatalf("pop %d returned %q (key %d), want %q (key %d) (FIFO order broken)",
				i, r.rec.ID, r.seq, want.rec.ID, want.seq)
		}
		if len(r.rec.Fields) != len(want.rec.Fields) {
			t.Fatalf("pop %d returned %d fields, want %d", i, len(r.rec.Fields), len(want.rec.Fields))
		}
		for j, f := range r.rec.Fields {
			if f != want.rec.Fields[j] {
				t.Fatalf("pop %d field %d = %+v, want %+v", i, j, f, want.rec.Fields[j])
			}
		}
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len() = %d after draining, want 0", got)
	}
	if _, ok, err := s.Pop(); err != nil || ok {
		t.Fatalf("Pop on drained spool = (ok %v, err %v), want (false, nil)", ok, err)
	}
}

// countSpoolFiles counts pipeline-spool spill files visible in the temp
// directory. The spool unlinks its spill file the moment it is created,
// so the count should be zero even while a spilled spool is live.
func countSpoolFiles(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "pipeline-spool-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestSpoolSpillBoundary exercises record counts straddling the
// in-memory cap: empty, one short of the cap, exactly at it, one past
// it (first spilled record), and far past it. Every count must replay
// in FIFO order and leave no spill file behind.
func TestSpoolSpillBoundary(t *testing.T) {
	for _, n := range []int{0, 1023, 1024, 1025, 4096} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			s := newRecordSpool(spoolMemRecords)
			for i := 0; i < n; i++ {
				if err := s.Append(spoolTestRecord(i)); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
			}
			if got := countSpoolFiles(t); got != 0 {
				t.Fatalf("%d spill files visible in temp dir while spool is live, want 0 (spill must be unlinked at creation)", got)
			}
			drainSpool(t, s, n)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := countSpoolFiles(t); got != 0 {
				t.Fatalf("%d spill files left in temp dir after Close, want 0", got)
			}
		})
	}
}

// TestSpoolCloseWithoutDrain pins that Close releases the spill handle
// even when spilled records were never replayed — the cancellation path.
func TestSpoolCloseWithoutDrain(t *testing.T) {
	s := newRecordSpool(4)
	for i := 0; i < 10; i++ {
		if err := s.Append(spoolTestRecord(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close with 6 undrained spilled records: %v", err)
	}
	if got := countSpoolFiles(t); got != 0 {
		t.Fatalf("%d spill files left after abandoning a spilled spool, want 0", got)
	}
	// Close is idempotent once the handle is released.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSpoolDefaultCap pins that a non-positive cap falls back to the
// package constant rather than spilling every record.
func TestSpoolDefaultCap(t *testing.T) {
	for _, cap := range []int{0, -3} {
		s := newRecordSpool(cap)
		if s.memCap != spoolMemRecords {
			t.Fatalf("newRecordSpool(%d).memCap = %d, want %d", cap, s.memCap, spoolMemRecords)
		}
	}
}

// FuzzSpoolFIFO drives arbitrary record counts and memory caps through
// the append-then-drain lifecycle. The invariants: records replay in
// exact FIFO order with fields intact, Len tracks the backlog, and no
// spill file survives Close. Seeds pin the spill boundary; the fuzzer
// explores everything else. Run with: go test -fuzz FuzzSpoolFIFO ./internal/pipeline/
func FuzzSpoolFIFO(f *testing.F) {
	f.Add(uint16(0), uint16(8))
	f.Add(uint16(1023), uint16(1024))
	f.Add(uint16(1024), uint16(1024))
	f.Add(uint16(1025), uint16(1024))
	f.Add(uint16(100), uint16(0)) // non-positive cap falls back to the default
	f.Add(uint16(7), uint16(1))
	f.Fuzz(func(t *testing.T, nRaw, capRaw uint16) {
		n := int(nRaw % 2048) // keep disk traffic bounded per exec
		memCap := int(capRaw % 2048)
		s := newRecordSpool(memCap)
		defer s.Close()
		for i := 0; i < n; i++ {
			if err := s.Append(spoolTestRecord(i)); err != nil {
				t.Fatalf("Append %d (cap %d): %v", i, memCap, err)
			}
		}
		if got := s.Len(); got != n {
			t.Fatalf("Len() = %d after %d appends (cap %d), want %d", got, n, memCap, n)
		}
		drainSpool(t, s, n)
		if err := s.Close(); err != nil {
			t.Fatalf("Close (cap %d): %v", memCap, err)
		}
	})
}
