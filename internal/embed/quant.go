package embed

import "math"

// The int8 scalar-quantized distance tier.
//
// Candidate scoring is the memory-bound half of every k-NN query: a flat
// scan at N=1M touches a gigabyte of float32 per query. This tier encodes
// the store into a blocked []int8 code array — 4x less scan traffic —
// scores candidates with an integer dot-product kernel (SIMD assembly on
// amd64, a pure-Go loop elsewhere), keeps a shortlist by quantized
// distance, and re-ranks the shortlist with exact float32 distances so
// the final ranking (ties included) is decided by the same arithmetic as
// the exact scan.
//
// The shortlist is then *certified* (certifiedSearch): a triangle-
// inequality bound over the shared grid proves that no row left out of
// the shortlist can rank among the top k, and a query whose proof does
// not close re-runs as the exact scan. The path therefore returns the
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
// int8 path. BenchmarkIndexNearest runs the exact scan and that path (the
// crossover set aside) side by side at N = 64 … 16384
// (table in docs/VECTOR.md): at dim 256 the two are level at N = 256, the
// certified path is 1.4x ahead at 512, 3.4x at 4096 and 5.4x at 16384,
// and the sim corpora certify every held-out query at each of those
// sizes. Below 512 the fixed costs — encoding the query, re-ranking the
// shortlist — eat the saving on a scan that fits in cache anyway.
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
// certified queries do and re-ranking 128 rows a sixth of one, so the
// wider list is the cheaper way to keep the share at zero.
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
// index is below the crossover, or k is so large that the 4k rows a
// shortlist needs to be worth re-ranking do not fit in half the index and
// the code pass would save nothing.
func (ix *Index) shortlistWidth(k int) int {
	const rerankFactor = 4
	n := len(ix.ids)
	if n < certMinPoints || ix.dim > certMaxDim {
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
// over every code row keeps the width closest rows by code distance, the
// exact float32 kernel re-ranks those into the top k, and one scalar test
// then proves the answer equal to the exact scan's — or reports false,
// and the caller runs the exact scan.
//
// The proof. Write x̂ for the grid point a vector's codes name. Grid
// points are exactly scale·√D apart, D the integer code distance. Every
// row v left out of the shortlist has D(q, v) ≥ D_root, the shortlist
// heap's root, so by the triangle inequality
//
//	‖q − v‖ ≥ ‖q̂ − v̂‖ − ‖q − q̂‖ − ‖v − v̂‖ ≥ scale·√D_root − ‖q − q̂‖ − resid = LB
//
// with ‖q − q̂‖ measured for this query against the codes it was actually
// given (so clamping a far-away query costs reach, never correctness) and
// resid the largest ‖v − v̂‖ in the store. If LB², less the rounding
// margin of certSlack, exceeds τ — the k-th smallest float32 d² among the
// re-ranked rows — then every left-out row's float32 d² is strictly
// greater than τ, the exact scan would have ranked it after all k kept
// rows whatever its position, and the two answers are the same k rows
// with distances from the same arithmetic. A NaN or ±Inf anywhere — in
// q, in the store, in the grid — makes LB NaN or −Inf or τ +Inf, and
// every comparison below is written to be false then.
func (ix *Index) certifiedSearch(sc *searchScratch, q []float32, k, skip, width int) ([]Neighbor, bool) {
	qz := ix.ensureQuantized()
	qRow, qNorm := qz.encodeQuery(sc.qRow, q)
	sc.qRow = qRow
	sl := &sc.short
	sl.k, sl.idx, sl.d2 = width, sl.idx[:0], sl.d2[:0]
	for i := 0; i < len(ix.ids); i++ {
		if i == skip {
			continue
		}
		sl.push(i, qz.codeD2(qNorm, qRow, i))
	}
	t := newTopK(k)
	for _, i := range sl.positions() {
		t.push(i, l2sq32(q, ix.vec(i)))
	}

	reach := float64(qz.scale) * math.Sqrt(float64(sl.d2[0]))
	lb := reach - qz.residual(q, qRow) - qz.resid
	tau := float64(t.d2[0]) + float64(ix.dim)*0x1p-126
	if len(sl.idx) == width && len(t.idx) == k && lb > certSlack*reach && lb*lb*(1-certSlack) > tau {
		ix.scans.certified.Add(1)
		return t.neighbors(ix.ids), true
	}
	ix.scans.fallbacks.Add(1)
	return nil, false
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
