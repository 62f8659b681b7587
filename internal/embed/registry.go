package embed

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"path/filepath"
	"sync"
)

// SourceKey is a SHA-256 that stands for a corpus: one a caller computed
// over whatever its items are rendered from (IndexFrom), or the content
// hash of the items themselves (IndexWith). The registry is shared by
// tenants, so the hash that addresses it is collision resistant — and,
// with the CPU's SHA extensions, faster than the FNV-128a it replaced.
type SourceKey [sha256.Size]byte

// KeyWriter builds a SourceKey from a sequence of strings and counts.
// Every value is length-prefixed, so distinct sequences never collide by
// concatenation. Values gather in a small buffer between hash writes: a
// corpus is tens of thousands of short strings.
type KeyWriter struct {
	h   hash.Hash
	buf []byte
}

// NewKeyWriter returns an empty KeyWriter.
func NewKeyWriter() *KeyWriter {
	return &KeyWriter{h: sha256.New(), buf: make([]byte, 0, 4096)}
}

func (w *KeyWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

// Int adds a count (a record's field count, say) to the key.
func (w *KeyWriter) Int(n int) {
	if cap(w.buf)-len(w.buf) < binary.MaxVarintLen64 {
		w.flush()
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(n))
}

// String adds one length-prefixed string to the key.
func (w *KeyWriter) String(s string) {
	w.Int(len(s))
	if cap(w.buf)-len(w.buf) < len(s) {
		w.flush()
	}
	if len(s) > cap(w.buf) {
		w.h.Write([]byte(s))
		return
	}
	w.buf = append(w.buf, s...)
}

// Sum returns the key of everything written so far.
func (w *KeyWriter) Sum() SourceKey {
	w.flush()
	var k SourceKey
	w.h.Sum(k[:0])
	return k
}

// registryKey addresses one slot: the embedding dimensionality, an
// embedder fingerprint, the normalised IndexOptions, and a SHA-256 that
// is either the content hash of the (id, text) pairs in order or, with
// source set, a key the caller computed over what the items are rendered
// from — the flag keeps the two from ever naming the same slot. Two calls
// with the same corpus, an equivalent embedder, and equivalent options —
// regardless of which operator or pipeline stage makes them — resolve to
// the same key and therefore the same built index.
type registryKey struct {
	dim         int
	fingerprint uint64
	opts        IndexOptions
	source      bool
	hash        SourceKey
}

// fileKey is what a persisted index file is named after and checked
// against: FNV-128a over the items, kept (indexVersion unchanged) so files
// written before the registry moved to SHA-256 still warm-load. It is
// computed once per registry miss and never addresses anything in memory.
type fileKey struct {
	dim         int
	n           int
	fingerprint uint64
	opts        IndexOptions
	hash        [16]byte
}

// normalized maps an IndexOptions to its canonical form — defaults
// resolved the way index construction resolves them — so configurations
// that build identical indexes share one registry slot ({} and {Seed: 1}
// are the same index).
func (o IndexOptions) normalized() IndexOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// registryEntry guards one index build: the first requester builds inside
// the once, later requesters (including concurrent ones) share the result.
type registryEntry struct {
	once sync.Once
	ix   *Index
}

// Registry caches built indexes keyed by corpus (the SHA-256 of its
// items, or of what they are rendered from), by an embedder fingerprint
// (the embedding of a fixed probe text), and by normalised IndexOptions,
// so stages of one pipeline (and repeated planner profiling passes) that
// index the same corpus with equivalent embedders and options embed it
// exactly once, while engines sharing a registry with *different*
// embedders or partition configurations never serve each other's vectors
// or partition structures.
//
// The registry never evicts an index: each slot holds its index, answer
// memo included, for the registry's lifetime.
//
// Returned indexes are shared: treat them as immutable and query-only
// (Index is safe for concurrent queries once mutation stops, which the
// registry guarantees by building fully before publishing). Safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[registryKey]*registryEntry
	builds  int
	hits    int
	// stateDir, when set (SetStateDir), warms new slots from persisted
	// index files and saves freshly built ones back (persist.go).
	stateDir  string
	warmLoads int
	saves     int
	// scans is the certified-path tally of every index this registry
	// serves (each is pointed at it before it is published).
	scans scanCounters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[registryKey]*registryEntry)}
}

// fileKeyOf hashes the corpus content. FNV-128a over length-prefixed
// fields keeps distinct corpora from colliding by concatenation tricks.
func fileKeyOf(em Embedder, items []Item, opts IndexOptions) fileKey {
	h := fnv.New128a()
	var buf []byte
	writeStr := func(s string) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(s)))
		buf = append(buf, s...)
		h.Write(buf)
	}
	for _, it := range items {
		writeStr(it.ID)
		writeStr(it.Text)
	}
	key := fileKey{dim: em.Dim(), n: len(items), fingerprint: fingerprint(em), opts: opts.normalized()}
	h.Sum(key.hash[:0])
	return key
}

// fingerprint distinguishes embedder configurations without requiring
// them to be comparable or named: two embedders that agree on a fixed
// probe text are, for retrieval purposes, the same deterministic
// function. (Embedders are deterministic by contract.)
func fingerprint(em Embedder) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range em.Embed("embed: registry probe text") {
		bits := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Index returns a shared exact-search index over exactly these items,
// building it on first request (embedding parallelised via AddAll) and
// serving every later request for the same corpus from cache.
func (r *Registry) Index(em Embedder, items []Item) *Index {
	return r.IndexWith(em, items, IndexOptions{})
}

// IndexWith is Index with explicit IndexOptions (partition count, k-means
// seed). Options are part of the slot key in normalised form. It is
// IndexFrom with the content hash of the items as the key.
func (r *Registry) IndexWith(em Embedder, items []Item, opts IndexOptions) *Index {
	w := NewKeyWriter()
	for _, it := range items {
		w.String(it.ID)
		w.String(it.Text)
	}
	return r.index(em, registryKey{hash: w.Sum()}, opts, func() []Item { return items })
}

// IndexFrom returns the shared index filed under a key the caller
// computed over whatever the corpus is rendered from — cheaper than
// rendering it only to hash it. render produces the items and runs only
// when the slot is empty; a key must determine what render returns.
func (r *Registry) IndexFrom(em Embedder, source SourceKey, opts IndexOptions, render func() []Item) *Index {
	return r.index(em, registryKey{source: true, hash: source}, opts, render)
}

func (r *Registry) index(em Embedder, key registryKey, opts IndexOptions, render func() []Item) *Index {
	key.dim, key.fingerprint, key.opts = em.Dim(), fingerprint(em), opts.normalized()
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		e = &registryEntry{}
		r.entries[key] = e
	}
	stateDir := r.stateDir
	r.mu.Unlock()

	built, warmed, saved := false, false, false
	e.once.Do(func() {
		items := render()
		// With a state dir set, try the persisted file first: a hit skips
		// embedding and clustering entirely; any load failure (missing,
		// stale corpus, corrupt) falls through to a build that re-saves.
		// The file's key is hashed here, once, for the name, the load's
		// header check and the save.
		var path string
		var fk fileKey
		if stateDir != "" {
			fk = fileKeyOf(em, items, opts)
			path = filepath.Join(stateDir, fk.fileName())
			if ix, err := loadIndex(path, em, fk); err == nil {
				e.ix = r.publish(ix)
				warmed = true
				return
			}
		}
		ix := NewIndexWith(em, opts)
		ix.AddAll(items)
		if path != "" && saveIndex(path, ix, fk) == nil {
			saved = true
		}
		e.ix = r.publish(ix)
		built = true
	})
	r.mu.Lock()
	switch {
	case warmed:
		r.warmLoads++
	case built:
		r.builds++
	default:
		r.hits++
	}
	if saved {
		r.saves++
	}
	r.mu.Unlock()
	return e.ix
}

// publish readies an index for sharing: it counts its scans in the
// registry's tally and gets an answer memo, so a query any job has already
// asked is answered without a scan. The memo is never saved with the index.
func (r *Registry) publish(ix *Index) *Index {
	ix.scans = &r.scans
	ix.memo = &answerMemo{limit: ix.Len()}
	return ix
}

// Stats returns how many indexes were built and how many requests were
// served from an already-built index.
func (r *Registry) Stats() (builds, hits int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.builds, r.hits
}

// ScanStats returns, over every index the registry has served, how many
// queries the certified int8 path answered with its proof closed and how
// many fell back to the exact scan.
func (r *Registry) ScanStats() (certified, fallbacks int64) {
	return r.scans.certified.Load(), r.scans.fallbacks.Load()
}

// Reused returns, over every index the registry has served, how many
// queries an answer memo answered without a scan.
func (r *Registry) Reused() int64 { return r.scans.reused.Load() }
