package embed

import (
	"fmt"
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
		items := randomCorpus(64+50*trial, int64(300+trial))
		ix := NewIndex(Default())
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
// same distances, same tie-breaks — across random corpora past the
// crossover, k values, and exclusion queries, and again after a mutation
// has discarded the code array. TestCertifiedMatchesExact is the
// adversarial version.
func TestQuantizedRerankMatchesExactTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	check := func(label string, ix *Index, items []Item) {
		t.Helper()
		query := items[rng.Intn(len(items))].Text
		q := ix.embed32(nil, query)
		k := 1 + rng.Intn(12)
		if got, want := ix.Nearest(query, k), ix.exactScan(q, k, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: Nearest diverges from the exact scan:\n got %v\nwant %v", label, k, got, want)
		}
		ex := items[rng.Intn(len(items))].ID
		if got, want := ix.NearestOther(query, ex, k), ix.exactScan(q, k, ix.byID[ex]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: NearestOther diverges from the exact scan:\n got %v\nwant %v", label, k, got, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		items := randomCorpus(certMinPoints+rng.Intn(300), int64(500+trial))
		ix := NewIndex(Default())
		ix.AddAll(items)
		for qi := 0; qi < 6; qi++ {
			check(fmt.Sprintf("trial %d", trial), ix, items)
		}
		if c, f := ix.ScanStats(); c+f != 12 {
			t.Fatalf("trial %d: %d of 12 queries took the int8 path", trial, c+f)
		}
		if trial > 0 {
			continue
		}
		ix.Add("late", "a freshly added record invalidates the codes")
		if ix.quant.Load() != nil {
			t.Fatal("mutation must discard the code array")
		}
		check("after Add", ix, append(items, Item{ID: "late", Text: "freshly added record"}))
		if ix.quant.Load() == nil {
			t.Fatal("the query after the mutation did not rebuild the code array")
		}
	}
}

// TestConcurrentQuantizedNearest exercises the lazy code-array build under
// the race detector: many goroutines issue the first queries past the
// crossover concurrently, and all of them scan the one array that results.
func TestConcurrentQuantizedNearest(t *testing.T) {
	items := simTexts(t, certMinPoints+8)
	ix := NewIndex(Default())
	ix.AddAll(items)
	var wg sync.WaitGroup
	arrays := make([]*quantized, 8)
	for g := range arrays {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				ix.Nearest(items[(g*31+r)%len(items)].Text, 5)
				ix.NearestByID(items[(g*17+r)%len(items)].ID, 3)
			}
			arrays[g] = ix.quant.Load()
		}(g)
	}
	wg.Wait()
	for g, qz := range arrays {
		if qz == nil || qz != arrays[0] {
			t.Fatalf("goroutine %d finished on code array %p, goroutine 0 on %p", g, qz, arrays[0])
		}
	}
	if c, f := ix.ScanStats(); c+f != 8*4*2 {
		t.Fatalf("%d of %d queries took the int8 path", c+f, 8*4*2)
	}
}
