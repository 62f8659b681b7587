package workflow

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
)

// fillCache inserts n deterministic entries (two models, mixed sampling
// parameters) and returns the keys in insertion order.
func fillCache(c *Cache, n, salt int) []cacheKey {
	keys := make([]cacheKey, 0, n)
	for i := 0; i < n; i++ {
		k := cacheKey{
			model:  fmt.Sprintf("m%d", i%2),
			prompt: fmt.Sprintf("prompt-%d-%d", salt, i),
		}
		if i%3 == 0 {
			k.temperature, k.seed = 0.7, int64(i)
		}
		c.put(k, llm.Response{Text: fmt.Sprintf("answer-%d-%d", salt, i), Model: k.model})
		keys = append(keys, k)
	}
	return keys
}

// saveBytes returns the cache's canonical form (its sorted entries as
// JSON), the equivalence oracle for every log test: two caches with
// identical contents produce identical bytes.
func saveBytes(t *testing.T, c *Cache) []byte {
	t.Helper()
	raw, err := json.Marshal(entryList(c.snapshot()))
	if err != nil {
		t.Fatalf("marshal cache contents: %v", err)
	}
	return raw
}

func openLog(t *testing.T, path string) *CacheLog {
	t.Helper()
	lg, err := OpenCacheLog(path)
	if err != nil {
		t.Fatalf("OpenCacheLog(%s): %v", path, err)
	}
	t.Cleanup(func() { lg.Close() })
	return lg
}

func TestCacheLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	c := NewCache(4)
	fillCache(c, 50, 1)
	lg := openLog(t, path)
	if n, err := lg.Flush(c); err != nil || n != 50 {
		t.Fatalf("Flush = (%d, %v), want (50, nil)", n, err)
	}
	lg.Close() // one writer at a time: release the lock for the reopen

	restored := NewCache(4)
	lg2 := openLog(t, path)
	stats, err := lg2.Replay(restored)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if stats.Records != 50 || stats.Recovered {
		t.Fatalf("ReplayStats = %+v, want 50 clean records", stats)
	}
	if got, want := saveBytes(t, restored), saveBytes(t, c); !bytes.Equal(got, want) {
		t.Fatalf("replayed contents differ from original:\n%s\nvs\n%s", got, want)
	}
}

// TestCacheLogAppendIsDelta pins the O(delta) contract: appending one
// entry extends the file without rewriting a single existing byte.
func TestCacheLogAppendIsDelta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	c := NewCache(4)
	fillCache(c, 40, 1)
	lg := openLog(t, path)
	if _, err := lg.Flush(c); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	c.put(cacheKey{model: "m0", prompt: "one more"}, llm.Response{Text: "delta", Model: "m0"})
	if n, err := lg.Flush(c); err != nil || n != 1 {
		t.Fatalf("delta Flush = (%d, %v), want (1, nil)", n, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("file did not grow: %d -> %d bytes", len(before), len(after))
	}
	if !bytes.Equal(after[:len(before)], before) {
		t.Fatal("existing log bytes were rewritten by an append")
	}
	// The growth is exactly one record: header(8) + payload.
	entry := cacheEntry{Model: "m0", Prompt: "one more", Text: "delta"}
	if want := len(appendRecord(nil, entry)); len(after)-len(before) != want {
		t.Fatalf("append grew file by %d bytes, want %d (one record)", len(after)-len(before), want)
	}
	// A flush with nothing new appends nothing.
	if n, err := lg.Flush(c); err != nil || n != 0 {
		t.Fatalf("empty Flush = (%d, %v), want (0, nil)", n, err)
	}
}

// TestCacheLogReplayCompactEquivalence is the property test: for random
// insert/overwrite workloads, (flush log; replay) and (compact; replay)
// both reconstruct exactly the snapshot contents.
func TestCacheLogReplayCompactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		path := filepath.Join(t.TempDir(), "cache.log")
		c := NewCache(4)
		lg := openLog(t, path)
		// Random interleaving of inserts, overwrites, and flushes.
		for op := 0; op < 120; op++ {
			switch rng.Intn(5) {
			case 0: // overwrite an existing-ish key
				k := cacheKey{model: "m", prompt: fmt.Sprintf("p%d", rng.Intn(30))}
				c.put(k, llm.Response{Text: fmt.Sprintf("v%d", op), Model: "m"})
			case 1:
				if _, err := lg.Flush(c); err != nil {
					t.Fatalf("trial %d: Flush: %v", trial, err)
				}
			default:
				k := cacheKey{model: "m", prompt: fmt.Sprintf("p%d-%d", trial, op)}
				if rng.Intn(4) == 0 {
					k.temperature, k.seed = 1, int64(op)
				}
				c.put(k, llm.Response{Text: fmt.Sprintf("v%d", op), Model: "m"})
			}
		}
		if _, err := lg.Flush(c); err != nil {
			t.Fatalf("trial %d: final Flush: %v", trial, err)
		}
		want := saveBytes(t, c)
		lg.Close()

		replayed := NewCache(4)
		lgr := openLog(t, path)
		if _, err := lgr.Replay(replayed); err != nil {
			t.Fatalf("trial %d: Replay: %v", trial, err)
		}
		if got := saveBytes(t, replayed); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: log replay diverged from snapshot", trial)
		}

		// Compact and replay again: same contents, no more records than
		// live entries.
		if err := lgr.Compact(replayed); err != nil {
			t.Fatalf("trial %d: Compact: %v", trial, err)
		}
		size, _ := replayed.Stats()
		if st := lgr.Stats(); st.Records != size {
			t.Fatalf("trial %d: compacted log has %d records, live size %d", trial, st.Records, size)
		}
		lgr.Close()
		compacted := NewCache(4)
		lgc := openLog(t, path)
		if _, err := lgc.Replay(compacted); err != nil {
			t.Fatalf("trial %d: post-compact Replay: %v", trial, err)
		}
		if got := saveBytes(t, compacted); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: compacted replay diverged from snapshot", trial)
		}
	}

	// One fixed workload with its exact on-disk figures, so a change to
	// the record framing or the entry encoding shows as a number: 5000
	// inserts, flush, 1000 of them overwritten, flush — every overwrite is
	// an appended record, and compaction drops exactly the superseded ones.
	const entries, overwrites = 5000, 1000
	c := NewCache(0)
	put := func(i, gen int) {
		c.Put("bench", fmt.Sprintf("prompt-%d", i),
			llm.Response{Text: fmt.Sprintf("answer-%d-gen%d", i, gen), Model: "bench"})
	}
	lg := openLog(t, filepath.Join(t.TempDir(), "cache.log"))
	for i := 0; i < entries; i++ {
		put(i, 0)
	}
	if _, err := lg.Flush(c); err != nil {
		t.Fatalf("fixed workload: Flush: %v", err)
	}
	for i := 0; i < overwrites; i++ {
		put(i, 1)
	}
	if _, err := lg.Flush(c); err != nil {
		t.Fatalf("fixed workload: overwrite Flush: %v", err)
	}
	if st := lg.Stats(); st.Records != entries+overwrites || st.Bytes != 427568 {
		t.Fatalf("fixed workload: log holds %d records / %d bytes, pinned %d / 427568",
			st.Records, st.Bytes, entries+overwrites)
	}
	if err := lg.Compact(c); err != nil {
		t.Fatalf("fixed workload: Compact: %v", err)
	}
	if st := lg.Stats(); st.Records != entries || st.Bytes != 357788 {
		t.Fatalf("fixed workload: compacted log holds %d records / %d bytes, pinned %d / 357788",
			st.Records, st.Bytes, entries)
	}
}

// TestCompactedLogBytesPinned pins the exact bytes Compact writes for a
// fixed set of inserts, superseded ones included, so a change to the
// compaction writer or to the record format shows here.
func TestCompactedLogBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	lg := openLog(t, path)
	c := NewCache(0)
	keys := fillCache(c, 60, 1)
	if _, err := lg.Flush(c); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:20] {
		c.put(k, llm.Response{Text: "superseded " + k.prompt, Model: k.model})
	}
	if err := lg.Compact(c); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantLen = 4048
		wantSum = "92f85175b0c9a1f2add62a4c3324a5792418466c14f784b0c769cc31aa2a8043"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != wantLen || got != wantSum {
		t.Fatalf("compacted log is %d B with sha256 %s, pinned %d B with %s", len(b), got, wantLen, wantSum)
	}
	if st := lg.Stats(); st.Records != len(keys) || st.Bytes != int64(len(b)) {
		t.Fatalf("compacted log stats %+v, file holds %d records in %d B", st, len(keys), len(b))
	}
}

// TestCacheLogTornTailRecovery pins crash recovery: truncating the file
// at every byte boundary inside the final record loses at most that final
// entry, and the log stays appendable afterwards.
func TestCacheLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.log")
	c := NewCache(2)
	fillCache(c, 10, 3)
	lg := openLog(t, path)
	if _, err := lg.Flush(c); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lg.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last record's start: re-encode the sorted entries to learn
	// the final record length.
	entries := entryList(c.snapshot())
	lastLen := len(appendRecord(nil, entries[len(entries)-1]))
	lastStart := len(full) - lastLen

	for cut := lastStart + 1; cut < len(full); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		restored := NewCache(2)
		lgt := openLog(t, torn)
		stats, err := lgt.Replay(restored)
		if err != nil {
			t.Fatalf("cut %d: Replay: %v", cut, err)
		}
		if !stats.Recovered || stats.Records != 9 {
			t.Fatalf("cut %d: ReplayStats = %+v, want 9 records recovered", cut, stats)
		}
		if size, _ := restored.Stats(); size != 9 {
			t.Fatalf("cut %d: restored %d entries, want 9", cut, size)
		}
		// The file was truncated back to the intact prefix and appending
		// works: the re-added entry survives another replay.
		restored.put(entries[len(entries)-1].key(), llm.Response{Text: entries[len(entries)-1].Text})
		if n, err := lgt.Flush(restored); err != nil || n != 1 {
			t.Fatalf("cut %d: post-recovery Flush = (%d, %v)", cut, n, err)
		}
		lgt.Close()
		again := NewCache(2)
		lga := openLog(t, torn)
		if st, err := lga.Replay(again); err != nil || st.Records != 10 || st.Recovered {
			t.Fatalf("cut %d: post-recovery replay = (%+v, %v), want 10 clean", cut, st, err)
		}
	}
}

// TestCacheLogBitFlipRecovery: a corrupted byte anywhere drops at most
// the suffix from the flipped record on — earlier entries always load.
func TestCacheLogBitFlipRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.log")
	c := NewCache(2)
	fillCache(c, 12, 5)
	lg := openLog(t, path)
	if _, err := lg.Flush(c); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lg.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		pos := cacheLogHeaderLen + rng.Intn(len(full)-cacheLogHeaderLen)
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		flipped := filepath.Join(dir, fmt.Sprintf("flip-%d.log", trial))
		if err := os.WriteFile(flipped, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		restored := NewCache(2)
		lgf := openLog(t, flipped)
		stats, err := lgf.Replay(restored)
		if err != nil {
			t.Fatalf("trial %d: Replay: %v", trial, err)
		}
		size, _ := restored.Stats()
		if size > 12 {
			t.Fatalf("trial %d: corrupt log produced %d entries from 12", trial, size)
		}
		// Every restored entry must be genuine (CRC guarantees it): check
		// a flip never fabricates a key we didn't insert. Recovered should
		// be set since bytes were dropped (the flipped record is bad)
		// unless the flip landed in a record that still checksummed —
		// impossible for a single-byte flip with CRC-32C.
		if !stats.Recovered {
			t.Fatalf("trial %d: flip at %d not detected", trial, pos)
		}
		orig := c.snapshot()
		for k, v := range restored.snapshot() {
			if want, ok := orig[k]; !ok || want.Text != v.Text {
				t.Fatalf("trial %d: replay fabricated entry %+v", trial, k)
			}
		}
	}
}

// TestCacheLogConcurrentAppendsDuringQueries runs cache reads, writes,
// and log flushes concurrently; under -race this is the concurrency proof
// for the dirty-tracking flush path.
func TestCacheLogConcurrentAppendsDuringQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	lg := openLog(t, path)
	layer := NewExecLayer()
	c := layer.Cache()
	var calls atomic.Int64
	model := layer.Wrap(echoModel("m", &calls))
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Overlapping prompts: half shared across workers (queries
				// hitting the cache mid-flush), half unique (appends).
				p := fmt.Sprintf("shared-%d", i%50)
				if i%2 == 0 {
					p = fmt.Sprintf("w%d-%d", w, i)
				}
				if _, err := model.Complete(ctx, llm.Request{Prompt: p}); err != nil {
					t.Errorf("Complete: %v", err)
					return
				}
			}
		}(w)
	}
	var flushes sync.WaitGroup
	flushes.Add(1)
	go func() {
		defer flushes.Done()
		for i := 0; i < 50; i++ {
			if _, err := lg.Flush(c); err != nil {
				t.Errorf("concurrent Flush: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	flushes.Wait()
	if _, err := lg.Flush(c); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	lg.Close()

	restored := NewCache(0)
	lgr := openLog(t, path)
	if _, err := lgr.Replay(restored); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got, want := saveBytes(t, restored), saveBytes(t, c); !bytes.Equal(got, want) {
		t.Fatal("concurrent flushes lost or corrupted entries")
	}
}

func TestOpenCacheLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	if err := os.WriteFile(path, []byte(`[{"model":"m"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCacheLog(path); !errors.Is(err, ErrNotCacheLog) {
		t.Fatalf("OpenCacheLog on a foreign file = %v, want ErrNotCacheLog", err)
	}
}

func TestCacheLogFlushBeforeReplayRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	c := NewCache(2)
	fillCache(c, 3, 1)
	lg := openLog(t, path)
	if _, err := lg.Flush(c); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lg.Close()

	// Re-open: the tail is unvalidated, so appending must be refused
	// until a Replay validates (and possibly truncates) it.
	lg2 := openLog(t, path)
	c2 := NewCache(2)
	fillCache(c2, 1, 9)
	if _, err := lg2.Flush(c2); err == nil {
		t.Fatal("Flush before Replay succeeded; could append after a torn tail")
	}
	if _, err := lg2.Replay(NewCache(2)); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if _, err := lg2.Flush(c2); err != nil {
		t.Fatalf("Flush after Replay: %v", err)
	}
}

// TestExecLayerStatePersistence drives the layer-level wiring: warm start
// re-serves previous answers without upstream calls.
func TestExecLayerStatePersistence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	var calls atomic.Int64
	layer := NewExecLayer()
	if _, err := layer.OpenState(dir); err != nil {
		t.Fatalf("OpenState: %v", err)
	}
	m := layer.Wrap(echoModel("m", &calls))
	for i := 0; i < 20; i++ {
		if _, err := m.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("q%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := layer.FlushState(); err != nil || n != 20 {
		t.Fatalf("FlushState = (%d, %v), want (20, nil)", n, err)
	}
	if st, ok := layer.StateStats(); !ok || st.Records != 20 {
		t.Fatalf("StateStats = (%+v, %v)", st, ok)
	}
	if err := layer.CloseState(); err != nil {
		t.Fatalf("CloseState: %v", err)
	}

	// New process: same state dir, fresh layer. Every repeat is free.
	var calls2 atomic.Int64
	warm := NewExecLayer()
	stats, err := warm.OpenState(dir)
	if err != nil {
		t.Fatalf("warm OpenState: %v", err)
	}
	if stats.Records != 20 || stats.Recovered {
		t.Fatalf("warm ReplayStats = %+v, want 20 clean", stats)
	}
	m2 := warm.Wrap(echoModel("m", &calls2))
	for i := 0; i < 20; i++ {
		resp, err := m2.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("q%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("echo:q%d", i); resp.Text != want {
			t.Fatalf("warm answer = %q, want %q", resp.Text, want)
		}
	}
	if calls2.Load() != 0 {
		t.Fatalf("warm start made %d upstream calls, want 0", calls2.Load())
	}
	// Replayed entries are not dirty: nothing to flush.
	if n, err := warm.FlushState(); err != nil || n != 0 {
		t.Fatalf("warm FlushState = (%d, %v), want (0, nil)", n, err)
	}
	if err := warm.CloseState(); err != nil {
		t.Fatal(err)
	}
}

// TestExecLayerAutoCompaction pins FlushState's size trigger: the log
// auto-compacts only once superseded records outnumber live entries
// past the floor, and the rewritten log replays to the same cache.
func TestExecLayerAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	layer := NewExecLayer()
	if _, err := layer.OpenState(dir); err != nil {
		t.Fatalf("OpenState: %v", err)
	}
	const n = compactMinRecords // live set: one overwrite round trips the trigger
	put := func(gen int) {
		for i := 0; i < n; i++ {
			layer.Cache().Put("m", fmt.Sprintf("p%d", i), llm.Response{Text: fmt.Sprintf("g%d", gen), Model: "m"})
		}
		if _, err := layer.FlushState(); err != nil {
			t.Fatalf("FlushState gen %d: %v", gen, err)
		}
	}
	put(0)
	if st, _ := layer.StateStats(); st.Records != n {
		t.Fatalf("fresh log has %d records, want %d", st.Records, n)
	}
	put(1) // 2n records, not > 2x live: no compaction yet
	if st, _ := layer.StateStats(); st.Records != 2*n {
		t.Fatalf("after one overwrite round: %d records, want %d (no auto-compact at exactly 2x)", st.Records, 2*n)
	}
	put(2) // 3n records > 2x live: compacts back to n
	if st, _ := layer.StateStats(); st.Records != n {
		t.Fatalf("after two overwrite rounds: %d records, want auto-compaction to %d", st.Records, n)
	}
	if err := layer.CloseState(); err != nil {
		t.Fatal(err)
	}

	// The compacted log replays to the final generation.
	warm := NewExecLayer()
	if _, err := warm.OpenState(dir); err != nil {
		t.Fatalf("warm OpenState: %v", err)
	}
	size, _ := warm.Cache().Stats()
	if size != n {
		t.Fatalf("replayed cache has %d entries, want %d", size, n)
	}
	if resp, ok := warm.Cache().get(cacheKey{model: "m", prompt: "p0"}); !ok || resp.Text != "g2" {
		t.Fatalf("replayed p0 = (%+v, %v), want the last generation", resp, ok)
	}
	warm.CloseState()
}

// FuzzCacheLogReplay throws arbitrary bytes at the log opener/replayer:
// it must never panic, never fabricate entries that fail their checksum,
// and always leave the file appendable after recovery.
func FuzzCacheLogReplay(f *testing.F) {
	// Seed with a valid log, a torn log, and junk.
	c := NewCache(2)
	c.put(cacheKey{model: "m", prompt: "p"}, llm.Response{Text: "t"})
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.log")
	lg, err := OpenCacheLog(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := lg.Flush(c); err != nil {
		f.Fatal(err)
	}
	lg.Close()
	valid, _ := os.ReadFile(path)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("DCLG\x01\x00\x00\x00garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		lg, err := OpenCacheLog(p)
		if err != nil {
			return // rejected header: fine
		}
		defer lg.Close()
		cache := NewCache(2)
		if _, err := lg.Replay(cache); err != nil {
			return
		}
		// Whatever was recovered, the log must now accept appends and
		// replay them back.
		cache.put(cacheKey{model: "fz", prompt: "after"}, llm.Response{Text: "ok"})
		if _, err := lg.Flush(cache); err != nil {
			t.Fatalf("post-recovery Flush: %v", err)
		}
		lg.Close()
		again := NewCache(2)
		lg2, err := OpenCacheLog(p)
		if err != nil {
			t.Fatalf("re-open after append: %v", err)
		}
		defer lg2.Close()
		if _, err := lg2.Replay(again); err != nil {
			t.Fatalf("re-replay after append: %v", err)
		}
		if _, ok := again.get(cacheKey{model: "fz", prompt: "after"}); !ok {
			t.Fatal("appended entry lost after recovery")
		}
	})
}
