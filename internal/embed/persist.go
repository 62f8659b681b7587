package embed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/workflow"
)

// Index persistence (ISSUE 8): a built index — the contiguous float32
// store, the k-means partition structure, and the int8 code array —
// serializes into one versioned binary file whose sections are raw
// little-endian arrays at 8-byte-aligned offsets. Loading is one
// os.ReadFile plus pointer arithmetic: on little-endian hosts every
// array section is aliased in place over the read buffer (no per-record
// decode, no second copy of a 100MB store), which is what makes a warm
// start orders of magnitude faster than re-embedding and re-clustering
// the corpus. The header carries the registry's invalidation key — dim,
// n, embedder fingerprint, corpus content hash, normalized IndexOptions
// — so a stale file is detected before any section is touched and the
// caller falls back to a rebuild. A whole-file CRC-32C trailer rejects
// torn or bit-flipped files the same way the cache log does
// (workflow/cachelog.go); see docs/PERSISTENCE.md for the format.

const (
	indexMagic   = "DPIX"
	indexVersion = 1
	// indexHeaderLen is the fixed header: magic, version, fingerprint,
	// corpus hash, dim, n, section flags, partitions, two reserved words,
	// seed.
	indexHeaderLen = 64
	// indexMaxCount bounds every element count decoded from an index file
	// before it sizes an allocation, so a corrupt length field cannot
	// demand petabytes.
	indexMaxCount = 1 << 31
)

// The header once carried four more options — flag bits for ANN probing and
// the opt-in int8 tier, the probe count and the rerank factor. Their slots
// stay, in the header and in the file-name hash, holding what a
// default-options index always wrote there, so every such file already in
// a state dir still loads under the same name. Loading ignores them.
const (
	reservedFlags  = 0
	reservedProbes = 0
	reservedRerank = 4
)

// ErrNotIndexFile reports that a file is missing or is not a DPIX index
// file at the supported version.
var ErrNotIndexFile = errors.New("embed: not an index file")

// ErrStaleIndex reports that an index file is structurally valid but was
// built from a different corpus, embedder, or index configuration than
// requested. The actionable response is to rebuild and overwrite — which
// Registry does automatically when a state dir is set.
var ErrStaleIndex = errors.New("embed: index file does not match corpus")

// ErrCorruptIndex reports a failed checksum or an internally inconsistent
// section table. Unlike the cache log there is no valid prefix to
// recover — the index is derived state — so the fix is delete + rebuild.
var ErrCorruptIndex = errors.New("embed: index file corrupt")

// hostLittleEndian reports whether the running host stores integers
// little-endian, the precondition for aliasing file sections in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// IndexFileName returns the state-dir filename for a corpus + options
// slot: a hash over the full registry key, so distinct corpora, embedder
// configurations, and normalized option sets never collide on one file.
func IndexFileName(em Embedder, items []Item, opts IndexOptions) string {
	return fileKeyOf(em, items, opts).fileName()
}

func (key fileKey) fileName() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(key.dim))
	put(uint64(key.n))
	put(key.fingerprint)
	h.Write(key.hash[:])
	put(reservedFlags)
	put(uint64(int64(key.opts.Partitions)))
	put(reservedProbes)
	put(reservedRerank)
	put(uint64(key.opts.Seed))
	return fmt.Sprintf("index-%016x.dpix", h.Sum64())
}

// crcWriter tracks the running CRC-32C and byte offset of everything
// written, so sections can be padded to 8-byte alignment and the trailer
// checksum covers the exact stream. It ignores write errors: the
// bufio.Writer keeps the first one, and its Flush reports it.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	off int64
}

var indexCRCTable = crc32.MakeTable(crc32.Castagnoli)

func (cw *crcWriter) bytes(p []byte) {
	cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, indexCRCTable, p)
	cw.off += int64(len(p))
}

func (cw *crcWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.bytes(b[:])
}

func (cw *crcWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.bytes(b[:])
}

// align8 pads the stream to the next 8-byte boundary so the array
// section that follows can be aliased at its natural alignment.
func (cw *crcWriter) align8() {
	var zero [8]byte
	if rem := cw.off & 7; rem != 0 {
		cw.bytes(zero[:8-rem])
	}
}

// arrayElem is every element type an array section holds.
type arrayElem interface {
	float32 | int32 | uint32 | int8
}

// putArray writes a raw array section. On little-endian hosts the slice
// memory IS the wire format, so one unsafe reinterpretation writes the
// whole section; big-endian hosts write element by element. Bytes have no
// order, so an int8 section is always written whole.
func putArray[T arrayElem](cw *crcWriter, v []T) {
	if len(v) == 0 {
		return
	}
	size := int(unsafe.Sizeof(v[0]))
	if hostLittleEndian || size == 1 {
		cw.bytes(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size))
		return
	}
	for i := range v {
		cw.u32(*(*uint32)(unsafe.Pointer(&v[i])))
	}
}

// SaveIndex persists a fully built index to path, with the partition
// structure if Within or Blocks has built it and with the code array
// whenever the index is past the certified path's crossover — built here
// if no query has yet — so a warm load serves queries without rebuilding
// either. The write goes through workflow.ReplaceFile, so a crash never
// leaves a half-written file under the final name. The em and items
// arguments supply the invalidation key and must be the corpus the index
// was built from.
func SaveIndex(path string, ix *Index, em Embedder, items []Item) error {
	return saveIndex(path, ix, fileKeyOf(em, items, ix.opts))
}

// saveIndex is SaveIndex under an invalidation key already computed.
func saveIndex(path string, ix *Index, key fileKey) error {
	if ix.shortlistWidth(1) > 0 {
		ix.ensureQuantized()
	}

	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = workflow.ReplaceFile(path, func(w *bufio.Writer) error {
			cw := &crcWriter{w: w}
			writeIndexStream(cw, ix, key, ix.part.Load(), ix.quant.Load())
			cw.u32(cw.crc) // trailer: CRC-32C of everything before it
			return nil
		})
	}
	if err != nil {
		return fmt.Errorf("embed: save index: %w", err)
	}
	return nil
}

// writeIndexStream emits the header and every section in file order.
func writeIndexStream(cw *crcWriter, ix *Index, key fileKey, pt *partitions, qz *quantized) {
	n := len(ix.ids)
	// Header.
	cw.bytes([]byte(indexMagic))
	cw.u32(indexVersion)
	cw.u64(key.fingerprint)
	cw.bytes(key.hash[:])
	cw.u32(uint32(ix.dim))
	cw.u32(uint32(n))
	var hasPart, hasQuant byte
	if pt != nil {
		hasPart = 1
	}
	if qz != nil {
		hasQuant = 1
	}
	cw.bytes([]byte{reservedFlags, hasPart, hasQuant, 0})
	cw.u32(uint32(int32(key.opts.Partitions)))
	cw.u32(reservedProbes)
	cw.u32(reservedRerank)
	cw.u64(uint64(key.opts.Seed))

	// Ids: cumulative end offsets, then one concatenated blob. The loader
	// turns the blob into a single string and every id into a substring.
	offs := make([]uint32, n+1)
	total := 0
	for i, id := range ix.ids {
		total += len(id)
		offs[i+1] = uint32(total)
	}
	cw.align8()
	putArray(cw, offs)
	cw.align8()
	for _, id := range ix.ids {
		cw.bytes([]byte(id))
	}

	// Vector store.
	cw.align8()
	putArray(cw, ix.data)

	if pt != nil {
		p := pt.count()
		cw.align8()
		cw.u32(uint32(p))
		cw.align8()
		putArray(cw, pt.centroids)
		cw.align8()
		putArray(cw, pt.radius)
		// Row → its partition, once: only ANN probing read the section, and
		// a file written here is never found under the name of one saved
		// with ANN on. Zeros keep the layout version 1.
		cw.align8()
		putArray(cw, make([]int32, n))
		// Member lists flatten to per-partition lengths + one contiguous
		// array each; the loader re-slices the flat arrays in place.
		writeLists(cw, pt.members)
		writeLists(cw, pt.secondary)
	}

	if qz != nil {
		cw.align8()
		cw.u32(uint32(qz.stride))
		cw.u32(*(*uint32)(unsafe.Pointer(&qz.lo)))
		cw.u32(*(*uint32)(unsafe.Pointer(&qz.scale)))
		cw.u32(0)
		cw.align8()
		putArray(cw, qz.codes)
		cw.align8()
		putArray(cw, qz.norms)
	}
	cw.align8()
}

// writeLists flattens a ragged [][]int32 into lengths + one flat array.
func writeLists(cw *crcWriter, lists [][]int32) {
	lens := make([]uint32, len(lists))
	total := uint64(0)
	for i, l := range lists {
		lens[i] = uint32(len(l))
		total += uint64(len(l))
	}
	cw.align8()
	putArray(cw, lens)
	cw.align8()
	cw.u64(total)
	for _, l := range lists {
		putArray(cw, l)
	}
}

// indexReader is a bounds-checked cursor over a fully read index file.
// Every section accessor validates length before touching bytes, so a
// truncated or corrupt count fails with ErrCorruptIndex instead of a
// panic — the property FuzzLoadIndex exercises.
type indexReader struct {
	b   []byte
	off int
	err error
}

func (r *indexReader) fail() {
	if r.err == nil {
		r.err = ErrCorruptIndex
	}
}

func (r *indexReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *indexReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *indexReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *indexReader) align8() {
	if rem := r.off & 7; rem != 0 {
		r.take(8 - rem)
	}
}

// count validates an element count read from the file against both the
// sanity bound and the bytes actually remaining.
func (r *indexReader) count(n uint64, elemSize int) int {
	if r.err != nil {
		return 0
	}
	if n > indexMaxCount || int(n)*elemSize > len(r.b)-r.off {
		r.fail()
		return 0
	}
	return int(n)
}

// getArray decodes an array section of n elements: aliased in place when
// the host is little-endian and the section landed aligned for T (the
// 8-byte section padding guarantees this for buffers from os.ReadFile or
// the file's mapping), copied element by element otherwise. Bytes have
// neither order nor alignment, so an int8 section is always aliased.
func getArray[T arrayElem](r *indexReader, n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	p := r.take(n * size)
	if p == nil || n == 0 {
		return nil
	}
	if (hostLittleEndian || size == 1) && uintptr(unsafe.Pointer(&p[0]))%unsafe.Alignof(zero) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		bits := binary.LittleEndian.Uint32(p[i*4:])
		out[i] = *(*T)(unsafe.Pointer(&bits))
	}
	return out
}

// readLists reverses writeLists, re-slicing the flat array in place. Every
// entry must name one of the index's n rows — Within and Blocks slice the
// store by them — and with cover set the lists must name each row exactly
// once.
func (r *indexReader) readLists(p, n int, cover bool) [][]int32 {
	r.align8()
	lens := getArray[uint32](r, p)
	r.align8()
	total := r.count(r.u64(), 4)
	flat := getArray[int32](r, total)
	if r.err != nil {
		return nil
	}
	lists := make([][]int32, p)
	off := 0
	for i, l := range lens {
		n := r.count(uint64(l), 0)
		if off+n > total {
			r.fail()
			return nil
		}
		lists[i] = flat[off : off+n : off+n]
		off += n
	}
	if off != total || (cover && total != n) {
		r.fail()
		return nil
	}
	var seen []bool
	if cover {
		seen = make([]bool, n)
	}
	for _, j := range flat {
		if j < 0 || int(j) >= n || (cover && seen[j]) {
			r.fail()
			return nil
		}
		if cover {
			seen[j] = true
		}
	}
	return lists
}

// LoadIndex restores a persisted index from path, verifying that the
// file was built from exactly this corpus (em + items, hashed the same
// way the registry keys builds) before any section is decoded. The
// requested opts are the returned index's; the saved code array always
// transfers (it depends only on the stored vectors), the saved partition
// structure when Partitions and Seed match the saved build. Errors are
// classified: ErrNotIndexFile (missing/foreign file), ErrStaleIndex
// (valid file, different corpus or embedder), and ErrCorruptIndex
// (checksum or structural failure) — all of which a warm-start caller
// treats as "rebuild".
//
// On little-endian hosts the returned index aliases the file bytes —
// vectors, codes, and partition arrays point into one buffer with no
// per-record decode. On platforms with mmap that buffer IS the
// page-cache mapping of the file: loading allocates nothing
// proportional to the index, which keeps a warm start fast even when
// the process heap is already large (a 100MB ReadFile under GC
// pressure costs several times the raw read). The mapping stays alive
// for the life of the process — the index aliases it, so it is never
// unmapped after a successful load.
func LoadIndex(path string, em Embedder, items []Item, opts IndexOptions) (*Index, error) {
	return loadIndex(path, em, fileKeyOf(em, items, opts))
}

// loadIndex is LoadIndex under an invalidation key already computed; the
// key's options are the requested ones.
func loadIndex(path string, em Embedder, key fileKey) (*Index, error) {
	b, unmap, err := mapIndexFile(path)
	if err != nil {
		// No mmap on this platform, or the map failed: fall back to one
		// read into the heap. The decode below is identical.
		unmap = nil
		if b, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("%w: %s", ErrNotIndexFile, path)
		}
	}
	ix, err := decodeIndex(b, path, em, key)
	if err != nil && unmap != nil {
		unmap()
	}
	return ix, err
}

// decodeIndex validates and decodes a complete index file image; on
// success the returned index aliases b.
func decodeIndex(b []byte, path string, em Embedder, key fileKey) (*Index, error) {
	if len(b) < indexHeaderLen+4 || string(b[:4]) != indexMagic {
		return nil, fmt.Errorf("%w: %s", ErrNotIndexFile, path)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != indexVersion {
		return nil, fmt.Errorf("%w: %s has version %d, want %d", ErrNotIndexFile, path, v, indexVersion)
	}
	body, trailer := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, indexCRCTable) != trailer {
		return nil, fmt.Errorf("%w: %s failed checksum (delete the file to force a rebuild)", ErrCorruptIndex, path)
	}

	r := &indexReader{b: body, off: 8}
	fingerprint := r.u64()
	var hash [16]byte
	copy(hash[:], r.take(16))
	dim := int(r.u32())
	n := int(r.u32())
	fb := r.take(4)
	if r.err != nil {
		return nil, fmt.Errorf("%w: %s truncated header", ErrCorruptIndex, path)
	}
	hasPart, hasQuant := fb[1] == 1, fb[2] == 1
	savedOpts := IndexOptions{Partitions: int(int32(r.u32()))}
	r.take(8) // reserved
	savedOpts.Seed = int64(r.u64())
	if fingerprint != key.fingerprint || hash != key.hash || dim != key.dim || n != key.n {
		return nil, fmt.Errorf("%w: %s (rebuild and re-save)", ErrStaleIndex, path)
	}

	// Ids: one blob string, n substrings.
	r.align8()
	offs := getArray[uint32](r, n+1)
	r.align8()
	var blob string
	if r.err == nil {
		blob = string(r.take(r.count(uint64(offs[n]), 1)))
	}
	r.align8()
	data := getArray[float32](r, r.count(uint64(n)*uint64(dim), 4))
	if r.err != nil {
		return nil, fmt.Errorf("%w: %s sections truncated", ErrCorruptIndex, path)
	}
	ix := &Index{embedder: em, dim: dim, opts: key.opts, data: data, scans: new(scanCounters)}
	ix.ids = make([]string, n)
	ix.byID = make(map[string]int, n)
	prev := uint32(0)
	for i := 0; i < n; i++ {
		end := offs[i+1]
		if end < prev || int(end) > len(blob) {
			return nil, fmt.Errorf("%w: %s id table inconsistent", ErrCorruptIndex, path)
		}
		ix.ids[i] = blob[prev:end]
		ix.byID[ix.ids[i]] = i
		prev = end
	}

	if hasPart {
		r.align8()
		p := r.count(uint64(r.u32()), 1)
		r.align8()
		pt := &partitions{dim: dim}
		pt.centroids = getArray[float32](r, r.count(uint64(p)*uint64(dim), 4))
		r.align8()
		pt.radius = getArray[float32](r, p)
		r.align8()
		r.take(n * 4) // the retired row → partition section
		pt.members = r.readLists(p, n, true)
		pt.secondary = r.readLists(p, n, false)
		if r.err != nil {
			return nil, fmt.Errorf("%w: %s partition section inconsistent", ErrCorruptIndex, path)
		}
		// Saved partitions transfer only when the requested configuration
		// would have built them identically.
		if savedOpts.Partitions == key.opts.Partitions && savedOpts.Seed == key.opts.Seed {
			ix.part.Store(pt)
		}
	}

	if hasQuant {
		r.align8()
		qz := &quantized{dim: dim, stride: int(r.u32())}
		lo, scale := r.u32(), r.u32()
		qz.lo = *(*float32)(unsafe.Pointer(&lo))
		qz.scale = *(*float32)(unsafe.Pointer(&scale))
		r.u32()
		if qz.stride < dim || qz.stride > dim+quantBlock {
			return nil, fmt.Errorf("%w: %s quant stride inconsistent", ErrCorruptIndex, path)
		}
		r.align8()
		qz.codes = getArray[int8](r, r.count(uint64(n)*uint64(qz.stride), 1))
		r.align8()
		qz.norms = getArray[int32](r, n)
		if r.err != nil {
			return nil, fmt.Errorf("%w: %s quant section truncated", ErrCorruptIndex, path)
		}
		// The file does not carry the store's residual; one pass over
		// store and codes measures it, and vouches for the pair as it
		// does so (see quantized.resid).
		qz.resid = qz.maxResidual(data)
		ix.quant.Store(qz)
	}
	return ix, nil
}

// SetStateDir enables warm index persistence on the registry: every
// slot built while a state dir is set is saved to
// dir/IndexFileName(...), and later processes requesting the same
// corpus + options load the file instead of re-embedding and
// re-clustering. A stale, corrupt, or missing file silently falls back
// to a rebuild (which overwrites it). Call before the first IndexWith.
func (r *Registry) SetStateDir(dir string) {
	r.mu.Lock()
	r.stateDir = dir
	r.mu.Unlock()
}

// PersistStats reports how many registry slots were served from a warm
// state-dir load and how many were saved after building.
func (r *Registry) PersistStats() (warmLoads, saves int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.warmLoads, r.saves
}
