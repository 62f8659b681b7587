package embed

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/workflow"
)

// Neighbor is one k-NN search result.
type Neighbor struct {
	// ID is the identifier supplied at Add time.
	ID string
	// Distance is the L2 distance from the query.
	Distance float64
}

// Item is one (id, text) pair for batch insertion via AddAll.
type Item struct {
	ID, Text string
}

// IndexOptions shapes the k-means partition structure (partitions.go) that Within
// prunes with and Blocks draws candidate pairs from. Nearest, NearestOther
// and NearestByID never read it: there is one search, and its answer is
// the exact scan's.
type IndexOptions struct {
	// Partitions is the number of k-means partitions (default √N,
	// computed when the partition structure is first built).
	Partitions int
	// Seed drives the deterministic k-means initialisation (default 1).
	Seed int64
}

// Index is a k-NN index over embedded texts. Vectors live in a single
// contiguous []float32 backing array — one allocation, cache-friendly
// scans — and top-k queries use a bounded max-heap, so exact search is
// O(N·dim + N·log k) with no full-result materialisation. Past
// certMinPoints items the flat scan reads an int8 copy of the store
// instead and proves its answer equal to the exact scan's (quant.go). It
// is not safe for concurrent mutation; build it fully, then query from
// any goroutine.
type Index struct {
	embedder Embedder
	dim      int
	ids      []string
	data     []float32 // len(ids) × dim, row-major
	byID     map[string]int
	opts     IndexOptions
	// part and quant are built lazily on the first query needing them and
	// discarded on mutation. Atomic pointer + build mutex so concurrent
	// queries (allowed once mutation stops) race-freely share one build.
	part    atomic.Pointer[partitions]
	partMu  sync.Mutex
	quant   atomic.Pointer[quantized]
	quantMu sync.Mutex
	// scans counts certified-path outcomes; a Registry points every index
	// it serves at its own.
	scans *scanCounters
	// memo answers a repeated Nearest or NearestGroup query without a
	// scan. Only a Registry attaches one; insert drops it.
	memo *answerMemo
}

// scanCounters says what share of queries had the property the certified
// path is built on: certified answered from the int8 shortlist with the
// proof closed, fallbacks re-ran as the exact scan. Queries that never
// enter the path (small indexes, k too large) count as neither. reused
// counts queries the answer memo answered, which never reach a scan.
type scanCounters struct {
	certified, fallbacks, reused atomic.Int64
}

// ScanStats returns how many queries on this index were certified and how
// many fell back.
func (ix *Index) ScanStats() (certified, fallbacks int64) {
	return ix.scans.certified.Load(), ix.scans.fallbacks.Load()
}

// Reused returns how many queries on this index its answer memo answered.
func (ix *Index) Reused() int64 { return ix.scans.reused.Load() }

// memoKey is one query as the memo files it: its text and the k asked.
type memoKey struct {
	text string
	k    int
}

// answerMemo maps a query to the neighbour list the scan gave it, in two
// generations of at most limit entries: when the current one fills it
// becomes the previous and the older one is dropped, and a hit in the
// previous one is copied back into the current. So it holds at most
// 2 × limit lists. A nil memo remembers nothing. Safe for concurrent use.
type answerMemo struct {
	mu        sync.Mutex
	limit     int
	cur, prev map[memoKey][]Neighbor
}

// get returns a copy of the list remembered for (text, k).
func (m *answerMemo) get(text string, k int) ([]Neighbor, bool) {
	if m == nil {
		return nil, false
	}
	key := memoKey{text, k}
	m.mu.Lock()
	defer m.mu.Unlock()
	nn, ok := m.cur[key]
	if !ok {
		if nn, ok = m.prev[key]; ok {
			m.store(key, nn)
		}
	}
	return slices.Clone(nn), ok
}

// put remembers a copy of nn as the answer to (text, k).
func (m *answerMemo) put(text string, k int, nn []Neighbor) {
	if m != nil {
		m.mu.Lock()
		m.store(memoKey{text, k}, slices.Clone(nn))
		m.mu.Unlock()
	}
}

// store files nn under key in the current generation, turning it over
// first if it is full.
func (m *answerMemo) store(key memoKey, nn []Neighbor) {
	if m.cur == nil || len(m.cur) >= m.limit {
		m.prev, m.cur = m.cur, make(map[memoKey][]Neighbor)
	}
	m.cur[key] = nn
}

// NewIndex returns an empty exact-search index using the given embedder.
func NewIndex(e Embedder) *Index { return NewIndexWith(e, IndexOptions{}) }

// NewIndexWith returns an empty index with explicit options (partition
// count, k-means seed).
func NewIndexWith(e Embedder, opts IndexOptions) *Index {
	return &Index{embedder: e, dim: e.Dim(), byID: make(map[string]int), opts: opts.normalized(), scans: new(scanCounters)}
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return len(ix.ids) }

// Position returns where id sits in insertion order: the index of the
// first item added under it (re-adding an id replaces its vector in
// place), which for an index built from a table without duplicate ids is
// the row number.
func (ix *Index) Position(id string) (int, bool) {
	pos, ok := ix.byID[id]
	return pos, ok
}

// vec returns the stored vector at position pos as a subslice of the
// backing array.
func (ix *Index) vec(pos int) []float32 {
	return ix.data[pos*ix.dim : (pos+1)*ix.dim]
}

// insert stores a float64 embedding under id, converting into the
// contiguous float32 array. Re-adding an existing id replaces its vector.
func (ix *Index) insert(id string, v []float64) {
	if len(v) != ix.dim {
		panic(fmt.Sprintf("embed: vector length %d does not match index dim %d", len(v), ix.dim))
	}
	ix.part.Store(nil)
	ix.quant.Store(nil)
	ix.memo = nil
	if pos, ok := ix.byID[id]; ok {
		dst := ix.vec(pos)
		for i, x := range v {
			dst[i] = float32(x)
		}
		return
	}
	ix.byID[id] = len(ix.ids)
	ix.ids = append(ix.ids, id)
	for _, x := range v {
		ix.data = append(ix.data, float32(x))
	}
}

// Add embeds and stores text under id. Re-adding an existing id replaces
// its vector.
func (ix *Index) Add(id, text string) {
	ix.insert(id, ix.embedder.Embed(text))
}

// AddAll embeds and stores every item, parallelising the embedding work
// across CPUs via workflow.Map — the embedder is called from multiple
// goroutines (see the Embedder contract). Insertion order (and therefore
// tie-break order) matches the slice order, exactly as sequential Add
// calls would produce.
func (ix *Index) AddAll(items []Item) {
	if len(items) == 0 {
		return
	}
	vecs, _ := workflow.Map(context.Background(), len(items), runtime.GOMAXPROCS(0),
		func(_ context.Context, i int) ([]float64, error) {
			return ix.embedder.Embed(items[i].Text), nil
		})
	if cap(ix.data)-len(ix.data) < len(items)*ix.dim {
		grown := make([]float32, len(ix.data), len(ix.data)+len(items)*ix.dim)
		copy(grown, ix.data)
		ix.data = grown
	}
	for i, v := range vecs {
		ix.insert(items[i].ID, v)
	}
}

// searchScratch is the working memory of one top-k query that does not
// leave with the result: the float32 query vector, its int8 code row, the
// certified path's shortlist and the top-k heap the re-rank and the exact
// scan rank through. Pooled so a query allocates only what it returns.
// reranked is how many shortlist rows the last certify scored in float32.
type searchScratch struct {
	q        []float32
	qRow     []int8
	short    shortlist
	top      topK
	reranked int
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// embed32 embeds query text into buf as a float32 vector.
func (ix *Index) embed32(buf []float32, text string) []float32 {
	q := buf[:0]
	for _, x := range ix.embedder.Embed(text) {
		q = append(q, float32(x))
	}
	return q
}

// nearestText embeds text into pooled scratch and searches with it.
func (ix *Index) nearestText(text string, k, skip int) []Neighbor {
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	sc.q = ix.embed32(sc.q, text)
	return ix.search(sc, sc.q, k, skip)
}

// Nearest returns the k nearest stored items to the query text by L2
// distance, closest first. Ties break by insertion order for determinism.
// If k exceeds the index size, all items are returned. A repeated query on
// an index with an answer memo skips the embedding and the scan.
func (ix *Index) Nearest(text string, k int) []Neighbor {
	if k <= 0 || len(ix.ids) == 0 {
		return nil
	}
	if nn, ok := ix.memo.get(text, k); ok {
		ix.scans.reused.Add(1)
		return nn
	}
	nn := ix.nearestText(text, k, -1)
	ix.memo.put(text, k, nn)
	return nn
}

// NearestOther behaves like Nearest but excludes the item stored under
// excludeID — the standard "neighbours of a record other than itself"
// query used by the entity-resolution and imputation workflows.
func (ix *Index) NearestOther(text, excludeID string, k int) []Neighbor {
	if k <= 0 || len(ix.ids) == 0 {
		return nil
	}
	skip := -1
	if pos, ok := ix.byID[excludeID]; ok {
		skip = pos
	}
	return ix.nearestText(text, k, skip)
}

// NearestByID returns the k nearest items to the one stored under id,
// excluding the item itself, reusing its stored vector — no re-embedding.
// Unknown ids return nil.
func (ix *Index) NearestByID(id string, k int) []Neighbor {
	pos, ok := ix.byID[id]
	if !ok || k <= 0 {
		return nil
	}
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	return ix.search(sc, ix.vec(pos), k, pos)
}

// DistanceByID returns the L2 distance between two stored vectors. The
// bool is false when either id is unknown.
func (ix *Index) DistanceByID(a, b string) (float64, bool) {
	pa, ok := ix.byID[a]
	if !ok {
		return 0, false
	}
	pb, ok := ix.byID[b]
	if !ok {
		return 0, false
	}
	return math.Sqrt(float64(l2sq32(ix.vec(pa), ix.vec(pb)))), true
}

// NearestGroup returns Nearest(text, k) for every text, in order and bit
// for bit, and costs less than asking one at a time: past the crossover,
// GroupWidth queries at a time share one blocked pass over the int8 codes
// (certifiedGroup). Texts the answer memo holds skip the pass; the rest
// share it.
func (ix *Index) NearestGroup(texts []string, k int) [][]Neighbor {
	out := make([][]Neighbor, len(texts))
	if k <= 0 || len(ix.ids) == 0 || len(texts) == 0 {
		return out
	}
	var missBuf [64]int
	miss := missBuf[:0]
	for i, text := range texts {
		if nn, ok := ix.memo.get(text, k); ok {
			ix.scans.reused.Add(1)
			out[i] = nn
			continue
		}
		miss = append(miss, i)
	}
	var scs [GroupWidth]*searchScratch
	var qs [GroupWidth][]float32
	var skips [GroupWidth]int
	var got [GroupWidth][]Neighbor
	held := scs[:min(len(miss), GroupWidth)]
	for g := range held {
		held[g], skips[g] = searchPool.Get().(*searchScratch), -1
	}
	defer func() {
		for _, sc := range held {
			searchPool.Put(sc)
		}
	}()
	for lo := 0; lo < len(miss); lo += GroupWidth {
		m := min(len(miss)-lo, GroupWidth)
		for g := range m {
			scs[g].q = ix.embed32(scs[g].q, texts[miss[lo+g]])
			qs[g] = scs[g].q
		}
		ix.searchGroup(scs[:m], qs[:m], k, skips[:m], got[:m])
		for g, nn := range got[:m] {
			out[miss[lo+g]] = nn
			ix.memo.put(texts[miss[lo+g]], k, nn)
		}
	}
	return out
}

// searchGroup is search for up to GroupWidth queries that share k, each
// with its own excluded position: out[g] gets exactly what search returns
// for query g. Past the crossover, more than one query takes the blocked
// pass.
func (ix *Index) searchGroup(scs []*searchScratch, qs [][]float32, k int, skips []int, out [][]Neighbor) {
	k = min(k, len(ix.ids))
	width := ix.shortlistWidth(k)
	if width == 0 || len(qs) == 1 {
		for g, q := range qs {
			out[g] = ix.search(scs[g], q, k, skips[g])
		}
		return
	}
	ix.certifiedGroup(scs, qs, k, skips, width, out)
}

// search answers a query vector through the certified int8 path when the
// index is past its crossover, and through the exact scan below it or when
// the proof does not close. skip is a position to exclude (-1 for none). k
// is clamped to the index size first: both paths size a heap by it.
func (ix *Index) search(sc *searchScratch, q []float32, k, skip int) []Neighbor {
	k = min(k, len(ix.ids))
	if width := ix.shortlistWidth(k); width > 0 {
		if nn, ok := ix.certifiedSearch(sc, q, k, skip, width); ok {
			return nn
		}
	}
	return ix.exactScanWith(&sc.top, q, k, skip)
}

// exactScan is the exact search: every stored vector scored with the
// float32 kernel through the k-bounded heap. It is what every other path
// is measured or proved against.
func (ix *Index) exactScan(q []float32, k, skip int) []Neighbor {
	return ix.exactScanWith(new(topK), q, k, skip)
}

// exactScanWith is exactScan ranking through t, which it resets.
func (ix *Index) exactScanWith(t *topK, q []float32, k, skip int) []Neighbor {
	t.reset(k)
	for i := 0; i < len(ix.ids); i++ {
		if i == skip {
			continue
		}
		t.push(i, l2sq32(q, ix.vec(i)))
	}
	return t.neighbors(ix.ids)
}

// topK is a k-bounded max-heap over (float32 squared distance, insertion
// position): the root is the worst candidate kept, so a closer candidate
// replaces it in O(log k). Ties order by position, reproducing the
// stable-sort ranking of the previous full-sort implementation. The exact
// scan and the certified path's re-rank both rank through it.
type topK struct {
	k   int
	idx []int
	d2  []float32
}

// reset empties t for a top-k query, keeping its arrays.
func (t *topK) reset(k int) { t.k, t.idx, t.d2 = k, t.idx[:0], t.d2[:0] }

// after reports whether candidate a ranks strictly after candidate b
// (farther, or equally far but inserted later).
func (t *topK) after(ai int, ad2 float32, bi int, bd2 float32) bool {
	return ad2 > bd2 || (ad2 == bd2 && ai > bi)
}

func (t *topK) push(i int, d2 float32) {
	if len(t.idx) < t.k {
		t.idx = append(t.idx, i)
		t.d2 = append(t.d2, d2)
		// Sift up: a child ranking after its parent moves toward the root.
		c := len(t.idx) - 1
		for c > 0 {
			p := (c - 1) / 2
			if !t.after(t.idx[c], t.d2[c], t.idx[p], t.d2[p]) {
				break
			}
			t.idx[c], t.idx[p] = t.idx[p], t.idx[c]
			t.d2[c], t.d2[p] = t.d2[p], t.d2[c]
			c = p
		}
		return
	}
	if !t.after(t.idx[0], t.d2[0], i, d2) {
		return // candidate is no better than the current worst
	}
	t.idx[0], t.d2[0] = i, d2
	// Sift down.
	p := 0
	for {
		c := 2*p + 1
		if c >= len(t.idx) {
			break
		}
		if r := c + 1; r < len(t.idx) && t.after(t.idx[r], t.d2[r], t.idx[c], t.d2[c]) {
			c = r
		}
		if !t.after(t.idx[c], t.d2[c], t.idx[p], t.d2[p]) {
			break
		}
		t.idx[c], t.idx[p] = t.idx[p], t.idx[c]
		t.d2[c], t.d2[p] = t.d2[p], t.d2[c]
		p = c
	}
}

// neighbors sorts the kept candidates closest first — the heap is spent
// after — and returns them as Neighbors. Sorting the heap's own arrays
// takes no allocation beyond the result.
func (t *topK) neighbors(ids []string) []Neighbor {
	sort.Sort(t)
	out := make([]Neighbor, len(t.idx))
	for i, pos := range t.idx {
		out[i] = Neighbor{ID: ids[pos], Distance: math.Sqrt(float64(t.d2[i]))}
	}
	return out
}

// Len, Less and Swap order the kept candidates for neighbors.
func (t *topK) Len() int           { return len(t.idx) }
func (t *topK) Less(a, b int) bool { return t.after(t.idx[b], t.d2[b], t.idx[a], t.d2[a]) }
func (t *topK) Swap(a, b int) {
	t.idx[a], t.idx[b] = t.idx[b], t.idx[a]
	t.d2[a], t.d2[b] = t.d2[b], t.d2[a]
}
