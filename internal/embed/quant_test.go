package embed

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestCodeDotMatchesGeneric pins the platform kernel (SSE2 assembly on
// amd64) to the portable integer loop on random vectors, including the
// unaligned tail path and extremal codes.
func TestCodeDotMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lengths := []int{0, 1, 3, 15, 16, 17, 32, 256, 256 + 7, 16 * 33}
	for trial := 0; trial < 50; trial++ {
		for _, n := range lengths {
			a := make([]int8, n)
			b := make([]int8, n)
			for i := range a {
				a[i] = int8(rng.Intn(256) - 128)
				b[i] = int8(rng.Intn(256) - 128)
			}
			if trial == 0 { // extremal lanes exercise the sign-extension path
				for i := range a {
					a[i], b[i] = -128, -128
				}
			}
			var want int32
			for i := range a {
				want += int32(a[i]) * int32(b[i])
			}
			if got := codeDot(a, b); got != want {
				t.Fatalf("n=%d trial=%d: codeDot = %d, want %d", n, trial, got, want)
			}
			if got := codeDotGeneric(a, b); got != want {
				t.Fatalf("n=%d trial=%d: codeDotGeneric = %d, want %d", n, trial, got, want)
			}
		}
	}
}

// TestQuantizeDequantizeErrorBounded is the property test on the affine
// grid: every stored component must round-trip through its int8 code to
// within half a grid step, and the code-space distance identity
// (|a|² + |b|² − 2a·b) must equal the directly computed Σ(ca−cb)².
func TestQuantizeDequantizeErrorBounded(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		items := randomCorpus(quantMinPoints+50*trial, int64(300+trial))
		ix := NewIndexWith(Default(), IndexOptions{Quantize: true})
		ix.AddAll(items)
		qz := ix.ensureQuantized()
		bound := float64(qz.scale)/2 + 1e-6
		for i := 0; i < ix.Len(); i++ {
			row := qz.row(i)
			for d, x := range ix.vec(i) {
				back := float64(qz.lo) + float64(qz.scale)*float64(int32(row[d])+128)
				if diff := math.Abs(back - float64(x)); diff > bound {
					t.Fatalf("trial %d item %d dim %d: dequantize error %g exceeds scale/2 = %g",
						trial, i, d, diff, bound)
				}
			}
		}
		for qi := 0; qi < 5; qi++ {
			qRow, qNorm := qz.encodeQuery(nil, ix.vec(qi*ix.Len()/5))
			for i := 0; i < ix.Len(); i += 17 {
				var direct int64
				row := qz.row(i)
				for d := range qRow {
					diff := int64(qRow[d]) - int64(row[d])
					direct += diff * diff
				}
				if got := qz.codeD2(qNorm, qRow, i); got != direct {
					t.Fatalf("trial %d: codeD2 = %d, direct Σ(ca−cb)² = %d", trial, got, direct)
				}
			}
		}
	}
}

// TestQuantizedRerankMatchesExactTopK is a regression test for the proof:
// int8 shortlisting plus exact re-ranking, certified or fallen back,
// reproduces the float32 exact scan's top-k byte-identically — same ids,
// same distances, same tie-breaks — across random corpora, k values, and
// exclusion queries. TestCertifiedMatchesExact is the adversarial
// version.
func TestQuantizedRerankMatchesExactTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		items := randomCorpus(quantMinPoints+rng.Intn(300), int64(500+trial))
		exact := NewIndex(Default())
		exact.AddAll(items)
		quant := NewIndexWith(Default(), IndexOptions{Quantize: true})
		quant.AddAll(items)
		for qi := 0; qi < 6; qi++ {
			query := items[rng.Intn(len(items))].Text
			k := 1 + rng.Intn(12)
			if got, want := quant.Nearest(query, k), exact.Nearest(query, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: quantized top-k diverges from exact:\n got %v\nwant %v",
					trial, k, got, want)
			}
			ex := items[rng.Intn(len(items))].ID
			if got, want := quant.NearestOther(query, ex, k), exact.NearestOther(query, ex, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: quantized NearestOther diverges from exact:\n got %v\nwant %v",
					trial, k, got, want)
			}
		}
	}
}

// TestQuantizedRecall pins the quantized tier on 1k sim records with
// held-out queries — the same discipline as TestANNRecall. For the flat
// index it is a regression test for the proof: recall must be exactly 1.0,
// which the certificate guarantees rather than measures. ANN+quantized may
// additionally lose candidates to partition probing, so it shares ANN's
// 0.95 floor at the documented probe setting — and, on the index-bench
// corpus at default settings, ANN's exact pinned figure.
func TestQuantizedRecall(t *testing.T) {
	all := simTexts(t, 1100)
	items, heldOut := all[:1000], all[1000:]
	exact := NewIndex(Default())
	exact.AddAll(items)
	queries := make([]string, 0, len(heldOut))
	for _, it := range heldOut {
		queries = append(queries, it.Text)
	}

	quant := NewIndexWith(Default(), IndexOptions{Quantize: true})
	quant.AddAll(items)
	if recall := Recall(exact, quant, queries, 10); recall != 1 {
		t.Fatalf("flat quantized recall = %.4f, want exactly 1.0 (re-rank pinned to exact)", recall)
	}

	annq := NewIndexWith(Default(), IndexOptions{ANN: true, Partitions: 32, Probes: 10, Quantize: true})
	annq.AddAll(items)
	recall := Recall(exact, annq, queries, 10)
	if recall < 0.95 {
		t.Fatalf("ANN+quantized recall = %.3f, want >= 0.95", recall)
	}
	t.Logf("ANN+quantized recall@10 over %d held-out queries: %.3f", len(queries), recall)

	items, queries = indexBenchCorpus()
	exact = NewIndex(Default())
	exact.AddAll(items)
	if got := recall3(exact, exact.WithOptions(IndexOptions{Quantize: true}), queries, 10); got != 1 {
		t.Fatalf("index-bench flat quantized recall = %.3f, want exactly 1", got)
	}
	if got := recall3(exact, exact.WithOptions(IndexOptions{ANN: true, Quantize: true}), queries, 10); got != 0.878 {
		t.Fatalf("index-bench ANN+quantized recall = %.3f, pinned 0.878 (same candidates as plain ANN)", got)
	}
}

// TestQuantizedMatchesANNCandidates pins ANN+quantized to plain ANN on
// the sim corpus: both modes probe the identical candidate set, so at
// the default RerankFactor the re-ranked result should reproduce ANN's
// exact-scored ranking.
func TestQuantizedMatchesANNCandidates(t *testing.T) {
	all := simTexts(t, 600)
	items, heldOut := all[:512], all[512:]
	opts := IndexOptions{ANN: true, Partitions: 16, Probes: 4}
	ann := NewIndexWith(Default(), opts)
	ann.AddAll(items)
	qopts := opts
	qopts.Quantize = true
	annq := NewIndexWith(Default(), qopts)
	annq.AddAll(items)
	for _, it := range heldOut {
		if got, want := annq.Nearest(it.Text, 10), ann.Nearest(it.Text, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("ANN+quantized diverges from ANN on %q:\n got %v\nwant %v", it.Text, got, want)
		}
	}
}

// TestWithOptionsViewsShareStore checks the view constructor the bench
// harness uses: views answer exactly like freshly built indexes of the
// same options, and tier structures transfer where options agree.
func TestWithOptionsViewsShareStore(t *testing.T) {
	items := simTexts(t, 300)
	base := NewIndex(Default())
	base.AddAll(items)
	base.Nearest(items[0].Text, 1) // force the partition build

	for _, opts := range []IndexOptions{
		{Quantize: true},
		{ANN: true},
		{ANN: true, Quantize: true, RerankFactor: 8},
	} {
		view := base.WithOptions(opts)
		fresh := NewIndexWith(Default(), opts)
		fresh.AddAll(items)
		for qi := 0; qi < 5; qi++ {
			q := items[qi*50].Text
			if got, want := view.Nearest(q, 7), fresh.Nearest(q, 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v: view diverges from fresh build:\n got %v\nwant %v", opts, got, want)
			}
		}
	}

	// Partition transfer: same Partitions+Seed shares the built structure.
	ann := NewIndexWith(Default(), IndexOptions{ANN: true, Partitions: 16})
	ann.AddAll(items)
	ann.Nearest(items[0].Text, 1) // force the partition build
	pt := ann.part.Load()
	if pt == nil {
		t.Fatal("ANN query should have built partitions")
	}
	if qView := ann.WithOptions(IndexOptions{ANN: true, Partitions: 16, Quantize: true}); qView.part.Load() != pt {
		t.Fatal("view with matching Partitions/Seed should share the built partition structure")
	}
	if repart := ann.WithOptions(IndexOptions{ANN: true, Partitions: 8}); repart.part.Load() != nil {
		t.Fatal("view with different Partitions must not inherit the partition structure")
	}
}

// TestConcurrentQuantizedNearest exercises the lazy code-array build and
// quantized queries under the race detector: many goroutines issue the
// first quantized queries concurrently, in flat and ANN mode.
func TestConcurrentQuantizedNearest(t *testing.T) {
	items := simTexts(t, 256)
	for _, opts := range []IndexOptions{{Quantize: true}, {ANN: true, Quantize: true}} {
		ix := NewIndexWith(Default(), opts)
		ix.AddAll(items)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 4; r++ {
					ix.Nearest(items[(g*31+r)%len(items)].Text, 5)
					ix.NearestByID(items[(g*17+r)%len(items)].ID, 3)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestQuantizedSmallIndexFallsBack: below quantMinPoints the quantized
// path must defer to the exact scan (and mutation must invalidate a
// built code array).
func TestQuantizedSmallIndexFallsBack(t *testing.T) {
	items := randomCorpus(quantMinPoints-1, 3)
	ix := NewIndexWith(Default(), IndexOptions{Quantize: true})
	ix.AddAll(items)
	exact := NewIndex(Default())
	exact.AddAll(items)
	if got, want := ix.Nearest(items[1].Text, 5), exact.Nearest(items[1].Text, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("small quantized index diverges from exact: %v vs %v", got, want)
	}

	big := randomCorpus(quantMinPoints+40, 4)
	ix2 := NewIndexWith(Default(), IndexOptions{Quantize: true})
	ix2.AddAll(big)
	ix2.Nearest(big[0].Text, 3)
	if ix2.quant.Load() == nil {
		t.Fatal("quantized query should have built the code array")
	}
	ix2.Add("late", "a freshly added record invalidates the codes")
	if ix2.quant.Load() != nil {
		t.Fatal("mutation must discard the quantized view")
	}
	ex2 := NewIndex(Default())
	ex2.AddAll(big)
	ex2.Add("late", "a freshly added record invalidates the codes")
	if got, want := ix2.Nearest("freshly added record", 4), ex2.Nearest("freshly added record", 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt quantized index diverges from exact: %v vs %v", got, want)
	}
}

// TestScanBytesPerRecord pins the bytes/record metric index-bench
// reports: 4·dim for float32 scans, the 16-padded code stride quantized.
func TestScanBytesPerRecord(t *testing.T) {
	cases := []struct {
		opts IndexOptions
		dim  int
		want int
	}{
		{IndexOptions{}, 256, 1024},
		{IndexOptions{Quantize: true}, 256, 256},
		{IndexOptions{Quantize: true}, 250, 256},
		{IndexOptions{ANN: true}, 64, 256},
		{IndexOptions{ANN: true, Quantize: true}, 64, 64},
		{IndexOptions{Quantize: true}, 17, 32},
	}
	for _, c := range cases {
		if got := ScanBytesPerRecord(c.opts, c.dim); got != c.want {
			t.Errorf("ScanBytesPerRecord(%+v, %d) = %d, want %d", c.opts, c.dim, got, c.want)
		}
	}
}
