package embed

import (
	"math"
	"math/bits"
	"sync"
)

// The int8 scalar-quantized distance tier.
//
// Candidate scoring is the memory-bound half of every k-NN query: a flat
// scan at N=1M touches a gigabyte of float32 per query. This tier encodes
// the store into a blocked []int8 code array — 4x less scan traffic —
// scores candidates with an integer dot-product kernel (SIMD assembly on
// amd64, a pure-Go loop elsewhere), keeps a shortlist by quantized
// distance, and re-ranks the shortlist nearest-first with exact float32
// distances so the final ranking (ties included) is decided by the same
// arithmetic as the exact scan.
//
// The re-rank is *certified* as it goes (certifiedSearch): a triangle-
// inequality bound over the shared grid proves that no row not yet
// re-ranked can rank among the top k, the re-rank stops as soon as it
// does, and a query whose proof does not close by the end of the list
// re-runs as the exact scan. The path therefore returns the
// exact scan's answer bit for bit, always — which is why it is the search
// once an index is past certMinPoints, with nothing to switch it on or off.

// quantBlock is the code-row alignment: rows are zero-padded to a
// multiple of 16 bytes so the SIMD kernel consumes whole 16-lane blocks
// with no scalar tail, and successive rows stay cache-line friendly.
// Padding code 0 contributes nothing to dot products or norms because
// query rows carry the same zero padding.
const quantBlock = 16

// quantized is the scalar-quantization view over an index's float32
// store: one global affine grid (x ≈ lo + scale·(code+128)) spanning the
// store's min/max, int8 codes in a blocked row-major array, and
// precomputed per-row code norms so the scoring kernel reduces to one
// integer dot product per candidate:
//
//	Σ(cq−cv)² = |cq|² + |cv|² − 2·cq·cv
//
// Two vectors' grid points are exactly scale·√Σ(cq−cv)² apart (one shared
// scale), so code distance ranks candidates and, with each vector's
// distance to its own grid point, bounds the true distance from below.
type quantized struct {
	dim    int
	stride int     // dim rounded up to a multiple of quantBlock
	lo     float32 // grid origin: minimum stored component
	scale  float32 // grid step: (max − lo) / 255, or just above (buildQuantized)
	codes  []int8  // n × stride, row-major, padding zeroed
	norms  []int32 // per-row Σ code²
	// resid is the largest distance from a stored vector to its grid
	// point, measured over the store (about 0.6 of the analytic
	// (scale/2)·√dim). It is NaN or +Inf when the store or the grid is not
	// finite, which fails every certificate. Not persisted: a loaded code
	// array measures it again.
	resid float64
}

func (qz *quantized) row(i int) []int8 {
	return qz.codes[i*qz.stride : (i+1)*qz.stride]
}

// encode maps one component onto the grid, clamping values outside
// [lo, lo+255·scale] — stored values never clamp (the grid spans the
// store); query components can.
func (qz *quantized) encode(x float32) int8 {
	c := int(math.Round(float64((x - qz.lo) / qz.scale)))
	if c < 0 {
		c = 0
	} else if c > 255 {
		c = 255
	}
	return int8(c - 128)
}

// buildQuantized encodes the full store. One pass for the grid bounds,
// one for the codes and norms — O(N·dim), run once per built index.
func buildQuantized(ix *Index) *quantized {
	n := len(ix.ids)
	stride := (ix.dim + quantBlock - 1) / quantBlock * quantBlock
	qz := &quantized{dim: ix.dim, stride: stride}
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, x := range ix.data {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	qz.lo, qz.scale = lo, (hi-lo)/255
	if !(qz.scale > 0) { // constant (or empty) store: any positive step works
		qz.lo, qz.scale = lo, 1
	}
	// Stretch the step (by under 1/m) so that zero is a grid point when the
	// store straddles it. N-gram embeddings are sparse — most components
	// are exactly 0 — and wherever min and max happen to leave zero between
	// two grid points, every one of those components is off by the same
	// amount, up to scale/2. That alone doubled resid and the query
	// residual on a 100k synthetic corpus (0.041 against 0.019) and cut the
	// certified share of its queries from 64 of 64 to 18.
	if m := float32(math.Floor(float64(-lo / qz.scale))); lo < 0 && hi > 0 && m >= 1 {
		qz.scale = -lo / m
	}
	qz.codes = make([]int8, n*stride)
	qz.norms = make([]int32, n)
	for i := 0; i < n; i++ {
		row := qz.row(i)
		var norm int32
		for d, x := range ix.vec(i) {
			c := qz.encode(x)
			row[d] = c
			norm += int32(c) * int32(c)
		}
		qz.norms[i] = norm
	}
	qz.resid = qz.maxResidual(ix.data)
	return qz
}

// residual returns ‖v − v̂‖ in float64, v̂ being the grid point row
// encodes. Each component is taken relative to the grid origin first —
// x − lo is exact or as good as in float64, both being float32 — so the
// result is accurate to a 2⁻⁴⁰th of a grid step however far from zero the
// store sits. Any NaN or ±Inf in v, or a non-finite grid, yields NaN or
// +Inf.
func (qz *quantized) residual(v []float32, row []int8) float64 {
	lo, scale := float64(qz.lo), float64(qz.scale)
	var s float64
	for d, x := range v {
		e := (float64(x) - lo) - scale*float64(int(row[d])+128)
		s += e * e
	}
	return math.Sqrt(s)
}

// maxResidual measures resid over a store; a NaN residual sticks.
func (qz *quantized) maxResidual(data []float32) float64 {
	var worst float64
	for i := range qz.norms {
		if r := qz.residual(data[i*qz.dim:(i+1)*qz.dim], qz.row(i)); r > worst || r != r {
			worst = r
		}
	}
	return worst
}

// encodeQuery quantizes a query vector onto the store's grid into buf
// (grown when too small), returning the padded code row and its norm.
func (qz *quantized) encodeQuery(buf []int8, q []float32) ([]int8, int32) {
	if cap(buf) < qz.stride {
		buf = make([]int8, qz.stride)
	}
	row := buf[:qz.stride]
	clear(row[len(q):])
	var norm int32
	for d, x := range q {
		c := qz.encode(x)
		row[d] = c
		norm += int32(c) * int32(c)
	}
	return row, norm
}

// codeD2 is the squared L2 distance in code units between an encoded
// query and stored row i. int64 keeps the norm identity overflow-free at
// any dimensionality.
func (qz *quantized) codeD2(qNorm int32, qRow []int8, i int) int64 {
	return int64(qNorm) + int64(qz.norms[i]) - 2*int64(codeDot(qRow, qz.row(i)))
}

// ensureQuantized builds the code array on first use. Mutation
// (Add/AddAll) discards it, so a build-then-query workload pays once.
// Safe for concurrent queries: the first caller builds under the mutex,
// later callers take the lock-free atomic load.
func (ix *Index) ensureQuantized() *quantized {
	if qz := ix.quant.Load(); qz != nil {
		return qz
	}
	ix.quantMu.Lock()
	defer ix.quantMu.Unlock()
	if qz := ix.quant.Load(); qz != nil {
		return qz
	}
	qz := buildQuantized(ix)
	ix.quant.Store(qz)
	return qz
}

// certMinPoints is the index size from which queries take the certified
// int8 path. It is not where the two paths meet: with the code array
// already built, the certified path is ahead from the smallest index the
// 4k ≤ n/2 rule of shortlistWidth admits (held-out queries, k = 3, one
// core of a 2-core Xeon: 5.9–9.3 µs against 13.2–17.8 µs exact at N = 64,
// 20.9–21.9 µs against 85.7–87.8 µs at N = 300; docs/VECTOR.md). The gate
// is there for the build: buildQuantized takes 0.23–0.25 ms at N = 64 and
// 0.99–1.14 ms at N = 300, about 40 and 16 queries' saving, which a small
// index built for only a few queries never gets back.
const certMinPoints = 512

// certShortlist is the shortlist width the certified path keeps by code
// distance (4k when that is larger, never more than half the index — see
// shortlistWidth). The width sets how far the bound reaches:
// the certificate closes when the width-th code distance clears the k-th
// true distance by the quantization error, so a wider list certifies more
// queries and re-ranks more rows. Held-out queries, k = 5, five seeds × 256
// per corpus: on 512 to 16000 restaurant, product and citation records
// width 128 fell back on 0 of 11520, width 64 on 1, width 32 on 29; on
// 100k synthetic texts, where distances concentrate, width 128 fell back
// on 0 of 384 and width 64 on 6. At N = 4096 a fallback costs what four
// certified queries do, while a certified query pays for the width only
// in keeping the list: its re-rank stops where the proof closes, after
// about eleven rows on the sim corpora whatever the width. So the wider
// list is the cheap way to keep the share at zero.
const certShortlist = 128

// certSlack is the relative margin the certificate keeps for rounding. It
// has two things to cover. The float32 kernel l2sq32 rounds each term's
// subtraction and square and then carries it through at most dim/4 + 6
// additions (four accumulators, a three-element tail, the final
// three-way sum), so its result is no less than (d² − dim·2⁻¹²⁶)·(1 − γ)
// with γ ≤ (dim/4 + 16)·2⁻²⁴ — every term is non-negative, so errors
// cannot cancel a sum to below that — the 2⁻¹²⁶ per term being squares
// that underflow. And the bound is itself computed, in float64: its
// positive term reach is at least one grid step, its two residuals are
// each good to 2⁻⁴⁰ of a step (quantized.residual), so its absolute error
// is under 2⁻³⁹·reach; the certificate demands the bound be at least
// certSlack·reach, which keeps the relative error of its square under
// 10⁻⁸. 2⁻¹⁰ covers γ plus that for every dim up to certMaxDim with a
// factor of two to spare (at dim 256, γ is 4.8·10⁻⁶), and costs nothing
// measurable: the quantization terms of the bound are fifty times larger.
const certSlack = 1.0 / 1024

// certMaxDim is the widest embedding certSlack's derivation covers; wider
// indexes keep the exact scan.
const certMaxDim = 1 << 15

// shortlistWidth returns the width of the certified path's shortlist for a
// top-k query, or 0 when the query takes the exact scan outright: the
// index is below the crossover (or too large for shortKey), or k is so
// large that the 4k rows a shortlist needs to be worth re-ranking do not
// fit in half the index and the code pass would save nothing.
func (ix *Index) shortlistWidth(k int) int {
	const rerankFactor = 4
	n := len(ix.ids)
	if n < certMinPoints || uint64(n) > math.MaxUint32 || ix.dim > certMaxDim {
		return 0
	}
	floor := rerankFactor * k
	width := min(max(certShortlist, floor), n/2)
	if width < floor {
		return 0
	}
	return width
}

// certifiedSearch is the flat-index int8 path. One integer-kernel pass
// over every code row keeps the width closest rows by code distance
// (shortlist), the exact float32 kernel re-ranks them nearest-first into
// the top k, and one scalar test after each re-ranked row tries to prove
// the answer equal to the exact scan's — or, the list spent, reports
// false, and the caller runs the exact scan.
//
// The proof. Write x̂ for the grid point a vector's codes name. Grid
// points are exactly scale·√D apart, D the integer code distance. Rows are
// re-ranked in ascending code distance, so every row v not yet re-ranked —
// later in the shortlist or left out of it — has D(q, v) ≥ D_next, the
// code distance of the first row not yet re-ranked (once the whole list
// is re-ranked, of its last row), and by the triangle inequality
//
//	‖q − v‖ ≥ ‖q̂ − v̂‖ − ‖q − q̂‖ − ‖v − v̂‖ ≥ scale·√D_next − ‖q − q̂‖ − resid = LB
//
// with ‖q − q̂‖ measured for this query against the codes it was actually
// given (so clamping a far-away query costs reach, never correctness) and
// resid the largest ‖v − v̂‖ in the store. If LB², less the rounding
// margin of certSlack, exceeds τ — the k-th smallest float32 d² among the
// rows re-ranked so far — then every row not yet re-ranked has a float32
// d² strictly greater than τ, the exact scan would have ranked it after
// all k kept rows whatever its position, and the two answers are the same
// k rows with distances from the same arithmetic. reach = scale·√D_next
// only grows and τ only shrinks as rows are added, so the test closes on
// some prefix iff it closes on the whole list: stopping early changes
// neither an answer nor which queries certify. A NaN or ±Inf anywhere — in
// q, in the store, in the grid — makes LB NaN or −Inf or τ +Inf, and every
// comparison below is written to be false then.
func (ix *Index) certifiedSearch(sc *searchScratch, q []float32, k, skip, width int) ([]Neighbor, bool) {
	qz := ix.ensureQuantized()
	qRow, qNorm := qz.encodeQuery(sc.qRow, q)
	sc.qRow = qRow
	sl := &sc.short
	sl.reset(width)
	thr := sl.thr
	for i := 0; i < len(ix.ids); i++ {
		if key := shortKey(qz.codeD2(qNorm, qRow, i), i); key < thr && i != skip {
			thr = sl.add(key)
		}
	}
	return ix.certify(qz, sc, q, k, width)
}

// shortKey packs a shortlist candidate into one integer: its code distance
// in the high 32 bits, its row position in the low 32. Code distances stay
// below 2³¹ (at most certMaxDim·255²) and shortlistWidth keeps indexes of
// 2³² rows or more on the exact scan, so one unsigned comparison orders
// candidates by (distance, position), the order the exact scan breaks
// ties in. Keys of distinct rows are distinct.
func shortKey(d2 int64, pos int) uint64 { return uint64(d2)<<32 | uint64(pos) }

// shortlist is the certified path's candidate buffer. It holds every key
// offered below its threshold thr; when the buffer reaches twice the
// width, cut keeps the width smallest and lowers thr to the largest of
// them. A key dropped or refused is then larger than width keys already
// seen, so it cannot be among the width smallest, and the buffer always
// holds exactly the keys offered that are no larger than thr — all of
// them until the first cut — and with them the width smallest. The caller
// hoists thr into its scan loop and offers only keys below it.
type shortlist struct {
	width int
	thr   uint64
	keys  []uint64
}

func (sl *shortlist) reset(width int) {
	sl.width, sl.thr = width, math.MaxUint64
	if cap(sl.keys) < 2*width {
		sl.keys = make([]uint64, 0, 2*width)
	}
	sl.keys = sl.keys[:0]
}

// add buffers key, which must be below thr, and returns the threshold the
// next key must be below.
func (sl *shortlist) add(key uint64) uint64 {
	sl.keys = append(sl.keys, key)
	if len(sl.keys) == 2*sl.width {
		sl.cut()
	}
	return sl.thr
}

// offerBlock offers the rows of one blocked-kernel call to query g of the
// group: row lo+r has code norm rowNorms[r] and dot product
// dots[r·GroupWidth+g] with the query, whose own norm is qNorm. The row at
// skip is left out. Its own method so that the loop's few live values
// stay in registers.
func (sl *shortlist) offerBlock(qNorm int64, rowNorms, dots []int32, g, lo, skip int) {
	thr := sl.thr
	for r, rowNorm := range rowNorms {
		if key := shortKey(qNorm+int64(rowNorm)-2*int64(dots[r*GroupWidth+g]), lo+r); key < thr && lo+r != skip {
			thr = sl.add(key)
		}
	}
}

// cut keeps the width smallest buffered keys and makes the largest of
// them the threshold.
func (sl *shortlist) cut() {
	selectSmallest(sl.keys, sl.width)
	sl.keys = sl.keys[:sl.width]
	sl.thr = sl.keys[sl.width-1]
}

// selectSmallest rearranges distinct keys so that keys[:m] hold the m
// smallest, keys[m-1] the largest of those (0 < m ≤ len(keys)). It is
// quickselect with a median-of-three pivot and a branch-free partition —
// the comparisons of a cut are coin flips, and a mispredicted branch each
// made it three times slower — finished by insertion sort on short ranges.
func selectSmallest(keys []uint64, m int) {
	nth, lo, hi := m-1, 0, len(keys)
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		if keys[lo] > keys[mid] {
			keys[lo], keys[mid] = keys[mid], keys[lo]
		}
		if keys[mid] > keys[hi-1] {
			keys[mid], keys[hi-1] = keys[hi-1], keys[mid]
		}
		if keys[lo] > keys[mid] {
			keys[lo], keys[mid] = keys[mid], keys[lo]
		}
		pivot := keys[mid] // the median of three, parked at the end
		keys[mid], keys[hi-1] = keys[hi-1], pivot
		s := lo
		rest := keys[lo : hi-1]
		for i, x := range rest { // keys[lo:s] < pivot ≤ keys[s:lo+i]
			rest[i], keys[s] = keys[s], x
			_, below := bits.Sub64(x, pivot, 0)
			s += int(below)
		}
		keys[s], keys[hi-1] = pivot, keys[s]
		switch {
		case nth < s:
			hi = s
		case nth > s:
			lo = s + 1
		default:
			return
		}
	}
	insertionSort(keys[lo:hi])
}

// insertionSort sorts a short run of keys in place.
func insertionSort(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// rerankChunk is how many shortlist rows certify puts in order at a time.
// The proof closes after about eleven re-ranked rows on the sim corpora
// (k = 5), so most queries order one chunk of the list and no more.
const rerankChunk = 16

// certify re-ranks a query's finished shortlist nearest-first with the
// exact float32 kernel and runs the proof of certifiedSearch after each
// row, stopping at the first that closes it; sc.qRow must be the code row
// the shortlist was scored with. It orders the list a chunk at a time:
// keys[:sorted] are the smallest, in order.
func (ix *Index) certify(qz *quantized, sc *searchScratch, q []float32, k, width int) ([]Neighbor, bool) {
	keys := sc.short.keys
	t := &sc.top
	t.reset(k)
	sc.reranked = 0
	if len(keys) < width { // not the width smallest of the index: nothing to prove with
		ix.scans.fallbacks.Add(1)
		return nil, false
	}
	rq := qz.residual(q, sc.qRow)
	floor := float64(ix.dim) * 0x1p-126
	sorted := 0
	for j := 0; j < width; j++ {
		if j == sorted {
			sorted = orderNext(keys, sorted, width)
		}
		i := int(keys[j] & math.MaxUint32)
		t.push(i, l2sq32(q, ix.vec(i)))
		if len(t.idx) < k {
			continue
		}
		next := min(j+1, width-1)
		if next == sorted {
			sorted = orderNext(keys, sorted, width)
		}
		reach := float64(qz.scale) * math.Sqrt(float64(keys[next]>>32))
		lb := reach - rq - qz.resid
		if lb > certSlack*reach && lb*lb*(1-certSlack) > float64(t.d2[0])+floor {
			sc.reranked = j + 1
			ix.scans.certified.Add(1)
			return t.neighbors(ix.ids), true
		}
	}
	sc.reranked = width
	ix.scans.fallbacks.Add(1)
	return nil, false
}

// orderNext puts the smallest keys of keys[from:] in ascending order at
// keys[from:end], end being rerankChunk past from but no further than
// width, and returns end.
func orderNext(keys []uint64, from, width int) int {
	end := min(from+rerankChunk, width)
	selectSmallest(keys[from:], end-from)
	insertionSort(keys[from : end-1])
	return end
}

// GroupWidth is how many queries one blocked pass scores (NearestGroup
// takes any number, GroupWidth at a time), so it is how many a caller
// gathering queries for it should gather. The blocked kernels are unrolled
// for it, one accumulator register per query.
const GroupWidth = 4

// groupRows is how many rows one blocked-kernel call scores. Its dot
// products (1 KB) stay in L1 while the queries' shortlists read them.
const groupRows = 64

// groupScratch is a blocked pass's working memory: the group's queries
// widened to int16 (widenGroup) and one call's dot products.
type groupScratch struct {
	wide []int16
	dots [groupRows * GroupWidth]int32
}

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// certifiedGroup is certifiedSearch for up to GroupWidth queries that share
// k: one pass of the blocked kernel over the code rows feeds every query's
// own shortlist, so each row is read and widened once per group instead of
// once per query. Each query is then re-ranked and certified on its own
// exactly as certifiedSearch does, and one whose proof does not close runs
// the exact scan alone. Integer dot products are exact, so every shortlist
// — and with it every answer — is the one certifiedSearch builds.
func (ix *Index) certifiedGroup(scs []*searchScratch, qs [][]float32, k int, skips []int, width int, out [][]Neighbor) {
	qz := ix.ensureQuantized()
	gs := groupPool.Get().(*groupScratch)
	defer groupPool.Put(gs)
	var rows [GroupWidth][]int8
	var norms [GroupWidth]int64
	for g, q := range qs {
		sc := scs[g]
		var qNorm int32
		sc.qRow, qNorm = qz.encodeQuery(sc.qRow, q)
		rows[g], norms[g] = sc.qRow, int64(qNorm)
		sc.short.reset(width)
	}
	gs.wide = widenGroup(gs.wide, rows[:len(qs)], qz.stride)
	n := len(ix.ids)
	for lo := 0; lo < n; lo += groupRows {
		hi := min(lo+groupRows, n)
		dots := gs.dots[:(hi-lo)*GroupWidth]
		codeDotGroup(qz.codes[lo*qz.stride:hi*qz.stride], qz.stride, gs.wide, dots)
		for g := range qs {
			scs[g].short.offerBlock(norms[g], qz.norms[lo:hi], dots, g, lo, skips[g])
		}
	}
	for g, q := range qs {
		nn, ok := ix.certify(qz, scs[g], q, k, width)
		if !ok {
			nn = ix.exactScanWith(&scs[g].top, q, k, skips[g])
		}
		out[g] = nn
	}
}

// widenGroup lays a group's code rows out for codeDotGroup in dst (grown
// when too small): every lane sign-extended to int16 once, and block c of
// query g at dst[(c·GroupWidth+g)·quantBlock:], so the kernel walks the
// queries forward in step with the row. Slots past len(qRows) stay zero and
// score 0 against every row.
func widenGroup(dst []int16, qRows [][]int8, stride int) []int16 {
	n := stride * GroupWidth
	if cap(dst) < n {
		dst = make([]int16, n)
	}
	dst = dst[:n]
	clear(dst)
	for g, row := range qRows {
		for d, c := range row {
			dst[(d/quantBlock*GroupWidth+g)*quantBlock+d%quantBlock] = int16(c)
		}
	}
	return dst
}

// groupShape checks the arguments of codeDotGroup — whole rows of stride
// lanes, stride a positive multiple of quantBlock, qs as widenGroup lays
// it out, room in out for GroupWidth sums per row — and returns the row
// count. The assembly kernels read exactly that much; a mismatch is a bug.
func groupShape(rows []int8, stride int, qs []int16, out []int32) int {
	if stride <= 0 || stride%quantBlock != 0 || len(rows)%stride != 0 ||
		len(qs) < stride*GroupWidth || len(out) < len(rows)/stride*GroupWidth {
		panic("embed: codeDotGroup called with mismatched shapes")
	}
	return len(rows) / stride
}

// codeDotGroupGeneric is the portable blocked kernel: for every row of
// rows, the dot product with each of the GroupWidth widened queries in qs,
// written to out row by row. Each code is widened once per group, as in
// the assembly kernels.
func codeDotGroupGeneric(rows []int8, stride int, qs []int16, out []int32) {
	n := groupShape(rows, stride, qs, out)
	for r := 0; r < n; r++ {
		row := rows[r*stride : (r+1)*stride]
		var s0, s1, s2, s3 int32
		for c := 0; c < stride; c += quantBlock {
			blk := row[c : c+quantBlock]
			q := qs[c*GroupWidth : (c+quantBlock)*GroupWidth]
			q0, q1, q2, q3 := q[:quantBlock], q[quantBlock:2*quantBlock], q[2*quantBlock:3*quantBlock], q[3*quantBlock:]
			for l, x := range blk {
				v := int32(x)
				s0 += v * int32(q0[l])
				s1 += v * int32(q1[l])
				s2 += v * int32(q2[l])
				s3 += v * int32(q3[l])
			}
		}
		o := out[r*GroupWidth : (r+1)*GroupWidth]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
}

// codeDotGeneric is the portable integer dot-product kernel: int32
// accumulation over sign-extended int8 lanes, four independent
// accumulators so the loop pipelines (and auto-vectorizes under
// compilers that do). The amd64 build replaces it with an SSE2 kernel
// (quant_amd64.s) processing 16 lanes per iteration; both require
// len(a) == len(b) and benefit from quantBlock-aligned lengths.
func codeDotGeneric(a, b []int8) int32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}
