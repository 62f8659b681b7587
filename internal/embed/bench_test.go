package embed

import (
	"fmt"
	"sort"
	"testing"
)

// seedIndex replicates the seed repository's index verbatim — per-item
// []float64 vectors, full scan, full-result allocation, stable sort — as
// the baseline BenchmarkIndexNearest measures the rewrite against.
type seedIndex struct {
	embedder Embedder
	ids      []string
	vecs     [][]float64
}

func (ix *seedIndex) add(id, text string) {
	ix.ids = append(ix.ids, id)
	ix.vecs = append(ix.vecs, ix.embedder.Embed(text))
}

func (ix *seedIndex) nearest(q []float64, k int) []Neighbor {
	out := make([]Neighbor, 0, len(ix.ids))
	for i, v := range ix.vecs {
		out = append(out, Neighbor{ID: ix.ids[i], Pos: i, Distance: L2(q, v)})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Distance < out[b].Distance })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

func (ix *seedIndex) blocks(threshold float64) [][]string {
	assigned := make([]bool, len(ix.ids))
	var blocks [][]string
	for i := range ix.ids {
		if assigned[i] {
			continue
		}
		block := []string{ix.ids[i]}
		assigned[i] = true
		for j := i + 1; j < len(ix.ids); j++ {
			if assigned[j] {
				continue
			}
			if L2(ix.vecs[i], ix.vecs[j]) < threshold {
				block = append(block, ix.ids[j])
				assigned[j] = true
			}
		}
		blocks = append(blocks, block)
	}
	return blocks
}

// BenchmarkIndexNearest compares top-10 query throughput at N=10k sim
// records: the seed brute-force scan+sort against the flat float32 heap
// scan. Queries are held out of the index (same corpus distribution, no
// self-hit).
//
// The n=…/exact and n=…/certified pairs are where certMinPoints and
// certShortlist come from: the exact scan against the certified int8
// path (called directly, so that it runs below the crossover too) over
// the first N records, k = 5, with the share of queries whose proof
// closed and the shortlist rows a query re-ranked before it did; a query
// whose proof does not close pays for both, as in search.
func BenchmarkIndexNearest(b *testing.B) {
	const n, k = 10000, 10
	all := simTexts(b, 16384+256)
	items, heldOut := all[:n], all[len(all)-256:]
	queries := make([]string, len(heldOut))
	for i, it := range heldOut {
		queries[i] = it.Text
	}
	sc := new(searchScratch)

	b.Run("seed-scan", func(b *testing.B) {
		ix := &seedIndex{embedder: Default()}
		for _, it := range items {
			ix.add(it.ID, it.Text)
		}
		qvecs := make([][]float64, len(queries))
		for i, q := range queries {
			qvecs[i] = ix.embedder.Embed(q)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.nearest(qvecs[i%len(queries)], k)
		}
	})

	b.Run("exact-heap", func(b *testing.B) {
		ix := NewIndex(Default())
		ix.AddAll(items)
		qvecs := make([][]float32, len(queries))
		for i, q := range queries {
			qvecs[i] = ix.embed32(nil, q)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.exactScan(qvecs[i%len(queries)], k, -1)
		}
	})

	for _, n := range []int{64, 256, 512, 1024, 4096, 16384} {
		ix := NewIndex(Default())
		ix.AddAll(all[:n])
		ix.ensureQuantized()
		qvecs := make([][]float32, len(queries))
		for i, q := range queries {
			qvecs[i] = ix.embed32(nil, q)
		}
		b.Run(fmt.Sprintf("n=%d/exact", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.exactScan(qvecs[i%len(queries)], 5, -1)
			}
		})
		b.Run(fmt.Sprintf("n=%d/certified", n), func(b *testing.B) {
			c0, f0 := ix.ScanStats()
			reranked := 0
			for i := 0; i < b.N; i++ {
				q := qvecs[i%len(queries)]
				if _, ok := ix.certifiedSearch(sc, q, 5, -1, min(certShortlist, n/2)); !ok {
					ix.exactScan(q, 5, -1)
				}
				reranked += sc.reranked
			}
			c1, f1 := ix.ScanStats()
			b.ReportMetric(float64(c1-c0)/float64(c1-c0+f1-f0), "certified")
			b.ReportMetric(float64(reranked)/float64(b.N), "reranked/query")
		})
	}
}

// BenchmarkNearestGroup is the blocked pass against one query at a time:
// k = 5 over the first N records, queries held out, G queries per
// searchGroup call (G = 1 is search itself). ns/op is per query, so the
// G = 4 row reads directly against the G = 1 row; reranked/query is how
// many shortlist rows a query scored in float32 before its proof closed.
func BenchmarkNearestGroup(b *testing.B) {
	all := simTexts(b, 16384+256)
	heldOut := all[len(all)-256:]
	for _, n := range []int{512, 4096, 16384} {
		ix := NewIndex(Default())
		ix.AddAll(all[:n])
		ix.ensureQuantized()
		qvecs := make([][]float32, len(heldOut))
		for i, it := range heldOut {
			qvecs[i] = ix.embed32(nil, it.Text)
		}
		for _, g := range []int{1, GroupWidth} {
			b.Run(fmt.Sprintf("n=%d/G=%d", n, g), func(b *testing.B) {
				scs := make([]*searchScratch, g)
				for i := range scs {
					scs[i] = new(searchScratch)
				}
				skips := make([]int, g)
				for i := range skips {
					skips[i] = -1
				}
				out := make([][]Neighbor, g)
				reranked, queries := 0, 0
				for i := 0; i < b.N; i += g {
					lo := i % (len(qvecs) - g)
					ix.searchGroup(scs, qvecs[lo:lo+g], 5, skips, out)
					for _, sc := range scs {
						reranked += sc.reranked
					}
					queries += g
				}
				b.ReportMetric(float64(reranked)/float64(queries), "reranked/query")
			})
		}
	}
}

// BenchmarkBlocks compares the seed quadratic seed-scan blocking against
// partition-pruned union-find single linkage.
func BenchmarkBlocks(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		items := simTexts(b, n)
		b.Run(fmt.Sprintf("seed-quadratic/n%d", n), func(b *testing.B) {
			ix := &seedIndex{embedder: Default()}
			for _, it := range items {
				ix.add(it.ID, it.Text)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.blocks(0.8)
			}
		})
		b.Run(fmt.Sprintf("union-find/n%d", n), func(b *testing.B) {
			ix := NewIndex(Default())
			ix.AddAll(items)
			ix.ensurePartitions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Blocks(0.8)
			}
		})
	}
}

// BenchmarkEmbed compares the seed hasher-per-gram Embed with the inline
// scratch-buffer rewrite (byte-identical output, see
// TestEmbedMatchesReference).
func BenchmarkEmbed(b *testing.B) {
	e := Default()
	text := "wang j., li h., chen x. scalable entity matching over dirty web tables. vldb 2013"
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceEmbed(e, text)
		}
	})
	b.Run("optimised", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Embed(text)
		}
	})
}

// BenchmarkFlatScan is the exact float32 heap scan over 100k records — the
// fallback's cost at the largest size the repository measures.
func BenchmarkFlatScan(b *testing.B) {
	items, queries := syntheticCorpus(100000, 64, 11)
	ix := NewIndex(Default())
	ix.AddAll(items)
	qvecs := make([][]float32, len(queries))
	for i, q := range queries {
		qvecs[i] = ix.embed32(nil, q)
	}
	for i := 0; b.Loop(); i++ { // b.Loop runs the 100k-record set-up once
		ix.exactScan(qvecs[i%len(qvecs)], 10, -1)
	}
}

// BenchmarkIndexBuild measures parallel AddAll against sequential Add at
// N=5k.
func BenchmarkIndexBuild(b *testing.B) {
	items := simTexts(b, 5000)
	b.Run("sequential-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := NewIndex(Default())
			for _, it := range items {
				ix.Add(it.ID, it.Text)
			}
		}
	})
	b.Run("parallel-addall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := NewIndex(Default())
			ix.AddAll(items)
		}
	})
}
