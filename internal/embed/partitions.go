package embed

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/consistency"
)

// boundSlack pads the centroid-radius pruning bound so float32 rounding
// at a threshold boundary can never drop a qualifying pair. The bound is
// mathematically strict (d(q,x) ≥ d(q,c) − r(c)); the slack only admits a
// few extra candidate scans.
const boundSlack = 1e-4

// kmeansIters bounds the Lloyd refinement passes over the training
// sample. Partition quality plateaus quickly for hashing embeddings.
const kmeansIters = 5

// partitions is the coarse k-means structure over the store: centroids,
// the member lists of each partition, and each partition's radius (max
// member distance to its centroid), which powers the exact pruning bound
// used by Within. secondary additionally lists every vector under its
// second-closest centroid — redundant assignment, so that Blocks sees a
// near-duplicate pair that straddles a partition boundary in at least one
// candidate list.
type partitions struct {
	dim       int
	centroids []float32 // p × dim, row-major
	radius    []float32
	members   [][]int32 // primary assignment, every point exactly once
	secondary [][]int32 // second-nearest assignment
}

func (pt *partitions) count() int { return len(pt.members) }

func (pt *partitions) centroid(c int) []float32 {
	return pt.centroids[c*pt.dim : (c+1)*pt.dim]
}

// ensurePartitions builds the partition structure on first use. Mutation
// (Add/AddAll) discards it, so a build-then-query workload pays once.
// Safe for concurrent queries: the first caller builds under the mutex,
// later callers take the lock-free atomic load.
func (ix *Index) ensurePartitions() *partitions {
	if pt := ix.part.Load(); pt != nil {
		return pt
	}
	ix.partMu.Lock()
	defer ix.partMu.Unlock()
	if pt := ix.part.Load(); pt != nil {
		return pt
	}
	pt := buildPartitions(ix)
	ix.part.Store(pt)
	return pt
}

// nearestCentroid returns the closest centroid (lowest index on ties) and
// its squared distance.
func (pt *partitions) nearestCentroid(v []float32) (int, float32) {
	best, bestD2 := 0, l2sq32(v, pt.centroid(0))
	for c := 1; c < pt.count(); c++ {
		if d2 := l2sq32(v, pt.centroid(c)); d2 < bestD2 {
			best, bestD2 = c, d2
		}
	}
	return best, bestD2
}

// nearestTwoCentroids returns the two closest centroids (second is -1
// when only one partition exists).
func (pt *partitions) nearestTwoCentroids(v []float32) (int, int) {
	best, second := 0, -1
	bestD2 := l2sq32(v, pt.centroid(0))
	var secondD2 float32
	for c := 1; c < pt.count(); c++ {
		d2 := l2sq32(v, pt.centroid(c))
		switch {
		case d2 < bestD2:
			second, secondD2 = best, bestD2
			best, bestD2 = c, d2
		case second < 0 || d2 < secondD2:
			second, secondD2 = c, d2
		}
	}
	return best, second
}

// buildPartitions runs deterministic k-means: centroids are initialised
// from a seeded sample, refined with a few Lloyd passes over the sample
// (cheap at any N), then every point is assigned to its nearest centroid.
func buildPartitions(ix *Index) *partitions {
	n := len(ix.ids)
	p := ix.opts.Partitions
	if p <= 0 {
		p = int(math.Sqrt(float64(n)))
	}
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	pt := &partitions{
		dim:       ix.dim,
		centroids: make([]float32, p*ix.dim),
		radius:    make([]float32, p),
		members:   make([][]int32, p),
	}

	rng := rand.New(rand.NewSource(ix.opts.Seed))
	sampleN := 16 * p
	if sampleN > n {
		sampleN = n
	}
	sample := rng.Perm(n)[:sampleN]
	for c := 0; c < p; c++ {
		copy(pt.centroid(c), ix.vec(sample[c]))
	}

	assign := make([]int, sampleN)
	sums := make([]float64, p*ix.dim)
	counts := make([]int, p)
	for iter := 0; iter < kmeansIters; iter++ {
		changed := false
		for si, pos := range sample {
			c, _ := pt.nearestCentroid(ix.vec(pos))
			if assign[si] != c || iter == 0 {
				assign[si] = c
				changed = true
			}
		}
		if !changed {
			break
		}
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for si, pos := range sample {
			c := assign[si]
			counts[c]++
			v := ix.vec(pos)
			row := sums[c*ix.dim : (c+1)*ix.dim]
			for d, x := range v {
				row[d] += float64(x)
			}
		}
		for c := 0; c < p; c++ {
			if counts[c] == 0 {
				continue // keep the previous centroid for empty clusters
			}
			inv := 1 / float64(counts[c])
			dst := pt.centroid(c)
			row := sums[c*ix.dim : (c+1)*ix.dim]
			for d := range dst {
				dst[d] = float32(row[d] * inv)
			}
		}
	}

	pt.secondary = make([][]int32, p)
	for i := 0; i < n; i++ {
		v := ix.vec(i)
		c, second := pt.nearestTwoCentroids(v)
		pt.members[c] = append(pt.members[c], int32(i))
		if r := float32(math.Sqrt(float64(l2sq32(v, pt.centroid(c))))); r > pt.radius[c] {
			pt.radius[c] = r
		}
		if second >= 0 {
			pt.secondary[second] = append(pt.secondary[second], int32(i))
		}
	}
	return pt
}

// Within returns every stored item whose L2 distance to the query text is
// at most radius, closest first (ties by insertion order). It is exact:
// partitions are used only through the pruning bound
// d(q, x) ≥ d(q, centroid) − partitionRadius, which can rule a partition
// out but never a qualifying member.
func (ix *Index) Within(text string, radius float64) []Neighbor {
	if len(ix.ids) == 0 || radius < 0 {
		return nil
	}
	q := ix.embed32(nil, text)
	pt := ix.ensurePartitions()
	r2 := radius * radius
	var idxs []int
	var d2s []float32
	for c := 0; c < pt.count(); c++ {
		dqc := math.Sqrt(float64(l2sq32(q, pt.centroid(c))))
		if dqc-float64(pt.radius[c]) > radius+boundSlack {
			continue
		}
		for _, j := range pt.members[c] {
			i := int(j)
			if d2 := l2sq32(q, ix.vec(i)); float64(d2) <= r2 {
				idxs = append(idxs, i)
				d2s = append(d2s, d2)
			}
		}
	}
	order := make([]int, len(idxs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if d2s[order[a]] != d2s[order[b]] {
			return d2s[order[a]] < d2s[order[b]]
		}
		return idxs[order[a]] < idxs[order[b]]
	})
	out := make([]Neighbor, len(order))
	for i, h := range order {
		out[i] = Neighbor{ID: ix.ids[idxs[h]], Pos: idxs[h], Distance: math.Sqrt(float64(d2s[h]))}
	}
	return out
}

// Blocks partitions the indexed items into groups by single-linkage
// clustering over partition candidates: within every k-means partition's
// redundantly-assigned member list, pairs closer than threshold are
// unioned, and the blocks are the resulting union-find components. This
// replaces the seed's O(N²) seed-scan — pair comparisons drop to
// Σ|partition|² ≈ 4N²/P (≈ 4N^1.5 at the default √N partitions) — while
// keeping the exactly-one-block-per-item contract. Each item appears in
// exactly one block; blocks and their members preserve insertion order.
//
// Candidate generation is approximate: a sub-threshold pair links only if
// the two items share a partition under redundant (two-nearest)
// assignment. In the tight-threshold regime
// blocking runs at (near-duplicates, default cutoffs ≤ 1.0) shared
// partitions capture essentially all links, and the property test pins
// Blocks to full single-linkage components on random corpora.
//
// An index a Registry publishes remembers its last answer, so asking the
// same threshold again costs nothing; that answer is shared between
// callers, who must treat it as read-only.
func (ix *Index) Blocks(threshold float64) [][]string {
	if len(ix.ids) == 0 {
		return nil
	}
	if blocks, ok := ix.memo.blocksFor(threshold); ok {
		return blocks
	}
	blocks := ix.blocks(threshold)
	ix.memo.putBlocks(threshold, blocks)
	return blocks
}

// blocks computes Blocks(threshold) over a non-empty index.
func (ix *Index) blocks(threshold float64) [][]string {
	n := len(ix.ids)
	pt := ix.ensurePartitions()
	uf := consistency.NewUnionFind()
	for _, id := range ix.ids {
		uf.Add(id)
	}
	t2 := threshold * threshold
	var mem []int32
	for c := 0; c < pt.count(); c++ {
		mem = append(append(mem[:0], pt.members[c]...), pt.secondary[c]...)
		for a := 0; a < len(mem); a++ {
			va := ix.vec(int(mem[a]))
			for b := a + 1; b < len(mem); b++ {
				if float64(l2sq32(va, ix.vec(int(mem[b])))) < t2 {
					uf.Union(ix.ids[mem[a]], ix.ids[mem[b]])
				}
			}
		}
	}
	blockOf := make(map[string]int, n)
	var blocks [][]string
	for _, id := range ix.ids {
		root := uf.Find(id)
		bi, ok := blockOf[root]
		if !ok {
			bi = len(blocks)
			blockOf[root] = bi
			blocks = append(blocks, nil)
		}
		blocks[bi] = append(blocks[bi], id)
	}
	return blocks
}
