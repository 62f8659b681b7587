package workflow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/llm"
)

// CacheLog is the append-only persistence form of a Cache: one
// length-prefixed, checksummed binary record per inserted entry, appended
// in O(entry) — no rewrite of existing bytes — with an explicit
// compaction that rewrites live entries only. A flush costs only the
// delta since the previous flush, and a crash mid-append loses at most
// the final partial record (Replay recovers the valid prefix and
// truncates the torn tail).
//
// Layout:
//
//	header:  "DCLG" magic | uint32 version (little-endian)
//	record:  uint32 payload length | uint32 CRC-32C of payload | payload
//	payload: model, prompt, text as (uint32 length | bytes) each,
//	         float64 temperature bits, int32 max tokens, int64 seed
//
// Replay applies records in order with last-write-wins semantics, so a
// re-inserted key simply appends a superseding record; Compact reclaims
// the dead ones. All integers are little-endian. See docs/PERSISTENCE.md.
//
// A CacheLog is safe for concurrent use, but file-level: two processes
// must not append to one log concurrently (last to replay wins nothing —
// their records interleave and both prefixes survive, but there is no
// cross-process locking).
type CacheLog struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records int   // records currently in the file, superseded included
	size    int64 // bytes of valid log (header + records)
	// replayed reports whether the file's tail has been validated (a
	// fresh log trivially has; an existing one needs Replay). Appending
	// before validation could land records after a torn tail, where the
	// next replay would discard them, so Flush refuses until then.
	replayed bool
}

// CacheLogStats describes a log file: total records (superseded entries
// included — compare against the live cache size for the live ratio) and
// file bytes.
type CacheLogStats struct {
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

// ReplayStats reports what a Replay recovered. Recovered is true when the
// log ended in a torn or corrupt record: the valid prefix was applied,
// DroppedBytes were discarded, and the file was truncated back to the
// last intact record so future appends extend a clean log.
type ReplayStats struct {
	Records      int
	Recovered    bool
	DroppedBytes int64
}

const (
	cacheLogMagic   = "DCLG"
	cacheLogVersion = 1
	// cacheLogMaxRecord bounds a single record's payload; a length prefix
	// beyond it is treated as corruption rather than attempted as an
	// allocation.
	cacheLogMaxRecord = 64 << 20
	cacheLogHeaderLen = 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNotCacheLog reports that a file exists at the log path but does not
// start with the cache-log magic — an unrelated file, which OpenCacheLog
// refuses to append to.
var ErrNotCacheLog = errors.New("workflow: file is not a cache log")

// OpenCacheLog opens the log at path, creating it (and its parent
// directory) with a fresh header when absent or empty. The returned log
// is positioned for appends; call Replay to load its contents into a
// Cache first.
func OpenCacheLog(path string) (*CacheLog, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("workflow: open cache log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("workflow: open cache log: %w", err)
	}
	lg := &CacheLog{f: f, path: path}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("workflow: open cache log: %w", err)
	}
	if st.Size() == 0 {
		if err := lg.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return lg, nil
	}
	var hdr [cacheLogHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:4]) != cacheLogMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrNotCacheLog, path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != cacheLogVersion {
		f.Close()
		return nil, fmt.Errorf("workflow: cache log %s has version %d, this build reads %d", path, v, cacheLogVersion)
	}
	lg.size = cacheLogHeaderLen
	return lg, nil
}

// errReplayRequired: see CacheLog.replayed.
var errReplayRequired = errors.New("workflow: cache log has unvalidated contents; call Replay before Flush")

func (lg *CacheLog) writeHeader() error {
	var hdr [cacheLogHeaderLen]byte
	copy(hdr[:4], cacheLogMagic)
	binary.LittleEndian.PutUint32(hdr[4:], cacheLogVersion)
	if _, err := lg.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("workflow: write cache log header: %w", err)
	}
	lg.size = cacheLogHeaderLen
	lg.records = 0
	lg.replayed = true // a fresh log has no tail to validate
	return nil
}

// Path returns the log's file path.
func (lg *CacheLog) Path() string { return lg.path }

// Stats returns the log's record and byte counts as of the last Replay,
// Flush, or Compact.
func (lg *CacheLog) Stats() CacheLogStats {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return CacheLogStats{Records: lg.records, Bytes: lg.size}
}

// Close syncs and closes the log file.
func (lg *CacheLog) Close() error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if err := lg.f.Sync(); err != nil {
		lg.f.Close()
		return err
	}
	return lg.f.Close()
}

// appendRecord encodes one record into buf (reusing its storage) and
// returns the encoded bytes.
func appendRecord(buf []byte, e cacheEntry) []byte {
	payload := len(e.Model) + len(e.Prompt) + len(e.Text) + 3*4 + 8 + 4 + 8
	need := 8 + payload
	buf = buf[:0]
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	str(e.Model)
	str(e.Prompt)
	str(e.Text)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Temperature))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e.MaxTokens)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Seed))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], crcTable))
	return buf
}

// decodeRecordPayload parses one checksummed payload.
func decodeRecordPayload(p []byte) (cacheEntry, bool) {
	var e cacheEntry
	str := func() (string, bool) {
		if len(p) < 4 {
			return "", false
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint32(len(p)) < n {
			return "", false
		}
		s := string(p[:n])
		p = p[n:]
		return s, true
	}
	var ok bool
	if e.Model, ok = str(); !ok {
		return e, false
	}
	if e.Prompt, ok = str(); !ok {
		return e, false
	}
	if e.Text, ok = str(); !ok {
		return e, false
	}
	if len(p) != 8+4+8 {
		return e, false
	}
	e.Temperature = math.Float64frombits(binary.LittleEndian.Uint64(p))
	e.MaxTokens = int(int32(binary.LittleEndian.Uint32(p[8:])))
	e.Seed = int64(binary.LittleEndian.Uint64(p[12:]))
	return e, true
}

// Replay reads the log from the start and applies every intact record
// into c, last write winning, without marking the entries dirty (they are
// already durable). A torn tail — a final record that is truncated or
// fails its checksum, the signature of a crash mid-append — is recovered:
// the valid prefix is applied, the file is truncated back to the last
// intact record, and ReplayStats.Recovered reports it. Corruption earlier
// in the file is handled the same way (everything after the first bad
// record is dropped), so at worst a flipped byte costs the suffix — never
// a crash, never a poisoned cache.
func (lg *CacheLog) Replay(c *Cache) (ReplayStats, error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var stats ReplayStats
	if _, err := lg.f.Seek(cacheLogHeaderLen, io.SeekStart); err != nil {
		return stats, fmt.Errorf("workflow: replay cache log: %w", err)
	}
	st, err := lg.f.Stat()
	if err != nil {
		return stats, fmt.Errorf("workflow: replay cache log: %w", err)
	}
	fileSize := st.Size()
	r := bufio.NewReaderSize(lg.f, 1<<20)
	valid := int64(cacheLogHeaderLen)
	var hdr [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn header: prefix ends here
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n > cacheLogMaxRecord || int64(n) > fileSize-valid-8 {
			break // absurd or past-EOF length: corrupt record
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
			break // checksum mismatch
		}
		e, ok := decodeRecordPayload(payload)
		if !ok {
			break // structurally invalid payload despite matching CRC
		}
		c.loadEntry(e.key(), llm.Response{Text: e.Text, Model: e.Model})
		stats.Records++
		valid += 8 + int64(n)
	}
	if valid < fileSize {
		stats.Recovered = true
		stats.DroppedBytes = fileSize - valid
		if err := lg.f.Truncate(valid); err != nil {
			return stats, fmt.Errorf("workflow: truncate torn cache log tail: %w", err)
		}
	}
	lg.records = stats.Records
	lg.size = valid
	lg.replayed = true
	return stats, nil
}

// Flush appends every entry inserted into c since the last Flush (or
// Compact) and syncs the file — O(delta): existing log bytes are never
// rewritten. Within one flush the delta is deduplicated by key and
// appended in the deterministic snapshot order, so one workload flushed
// once produces one byte-identical log. Returns the number of records
// appended.
func (lg *CacheLog) Flush(c *Cache) (int, error) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if !lg.replayed {
		return 0, errReplayRequired
	}
	delta := c.drainDirty()
	if len(delta) == 0 {
		return 0, nil
	}
	entries := entryList(delta)
	// Appends go at the validated end of the log — Replay may have read
	// elsewhere, and a recovered tail truncation moved the end.
	if _, err := lg.f.Seek(lg.size, io.SeekStart); err != nil {
		return 0, fmt.Errorf("workflow: flush cache log: %w", err)
	}
	w := bufio.NewWriterSize(lg.f, 1<<20)
	var buf []byte
	var written int64
	for _, e := range entries {
		buf = appendRecord(buf, e)
		if _, err := w.Write(buf); err != nil {
			return 0, fmt.Errorf("workflow: flush cache log: %w", err)
		}
		written += int64(len(buf))
	}
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("workflow: flush cache log: %w", err)
	}
	if err := lg.f.Sync(); err != nil {
		return 0, fmt.Errorf("workflow: flush cache log: %w", err)
	}
	lg.records += len(entries)
	lg.size += written
	return len(entries), nil
}

// Compact rewrites the log to exactly c's live entries (in deterministic
// snapshot order), atomically: the replacement is written beside the log
// and renamed over it, so a crash mid-compaction leaves the old log
// intact. Unflushed entries are included — compaction makes every pending
// delta durable — so the dirty state is cleared too. Compact when the
// live ratio (cache size / log records) drops well below 1; see
// docs/PERSISTENCE.md.
func (lg *CacheLog) Compact(c *Cache) error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	// Drain the pending delta first: the rewrite below includes it (the
	// snapshot is taken after), so it must not be re-appended by a later
	// Flush. An insert racing this compaction re-marks itself dirty after
	// the drain, so at worst its record is appended twice (harmless under
	// last-write-wins) — never lost. On failure the drained marks are
	// restored, since the old log file (which lacks them) stays in place.
	drained := c.drainDirty()
	entries := entryList(c.snapshot())
	err := lg.rewrite(entries)
	if err != nil {
		c.markDirty(drained)
		return err
	}
	return nil
}

// rewrite atomically replaces the log file with exactly these entries:
// the replacement is written beside the log and renamed over it, so a
// crash mid-rewrite leaves the old log intact. Caller holds lg.mu.
func (lg *CacheLog) rewrite(entries []cacheEntry) error {
	tmp, err := os.CreateTemp(filepath.Dir(lg.path), ".cachelog-compact-*")
	if err != nil {
		return fmt.Errorf("workflow: compact cache log: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriterSize(tmp, 1<<20)
	var hdr [cacheLogHeaderLen]byte
	copy(hdr[:4], cacheLogMagic)
	binary.LittleEndian.PutUint32(hdr[4:], cacheLogVersion)
	size := int64(cacheLogHeaderLen)
	if _, err := w.Write(hdr[:]); err != nil {
		tmp.Close()
		return fmt.Errorf("workflow: compact cache log: %w", err)
	}
	var buf []byte
	for _, e := range entries {
		buf = appendRecord(buf, e)
		if _, err := w.Write(buf); err != nil {
			tmp.Close()
			return fmt.Errorf("workflow: compact cache log: %w", err)
		}
		size += int64(len(buf))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("workflow: compact cache log: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("workflow: compact cache log: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("workflow: compact cache log: %w", err)
	}
	if err := os.Rename(tmp.Name(), lg.path); err != nil {
		return fmt.Errorf("workflow: compact cache log: %w", err)
	}
	f, err := os.OpenFile(lg.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("workflow: reopen compacted cache log: %w", err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("workflow: reopen compacted cache log: %w", err)
	}
	lg.f.Close()
	lg.f = f
	lg.records = len(entries)
	lg.size = size
	lg.replayed = true // the rewritten file is fully known
	return nil
}
