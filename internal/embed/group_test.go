package embed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// assertGroupIsSearch holds one searchGroup call to search query by query:
// the same ids in the same order and distances equal as float64 bit
// patterns. Groups wider than GroupWidth go through in GroupWidth chunks,
// as NearestGroup sends them.
func assertGroupIsSearch(t *testing.T, label string, ix *Index, qs [][]float32, k int, skips []int) {
	t.Helper()
	got := make([][]Neighbor, len(qs))
	for lo := 0; lo < len(qs); lo += GroupWidth {
		hi := min(lo+GroupWidth, len(qs))
		scs := make([]*searchScratch, hi-lo)
		for g := range scs {
			scs[g] = new(searchScratch)
		}
		ix.searchGroup(scs, qs[lo:hi], k, skips[lo:hi], got[lo:hi])
	}
	for g, q := range qs {
		want := ix.search(new(searchScratch), q, k, skips[g])
		if len(got[g]) != len(want) {
			t.Fatalf("%s G=%d k=%d query %d: %d neighbours, search has %d", label, len(qs), k, g, len(got[g]), len(want))
		}
		for i := range want {
			if got[g][i].ID != want[i].ID || math.Float64bits(got[g][i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("%s G=%d k=%d query %d skip %d: neighbour %d is %v, search has %v",
					label, len(qs), k, g, skips[g], i, got[g][i], want[i])
			}
		}
	}
}

// groupQueries derives nine queries from certStore's one: the query
// itself, stored rows with one lane moved, a far query whose every lane
// clamps, and a NaN and a −Inf query — so most groups mix queries that
// certify with ones that must fall back.
func groupQueries(ix *Index, q []float32, rng *rand.Rand) [][]float32 {
	dim := len(q)
	qs := [][]float32{q}
	for len(qs) < 6 {
		v := append([]float32(nil), ix.vec(rng.Intn(ix.Len()))...)
		v[rng.Intn(dim)] += float32(rng.NormFloat64())
		qs = append(qs, v)
	}
	far := make([]float32, dim)
	for d := range far {
		far[d] = q[d]*100 + 50
	}
	nan := append([]float32(nil), q...)
	nan[rng.Intn(dim)] = float32(math.NaN())
	inf := append([]float32(nil), q...)
	inf[dim-1] = float32(math.Inf(-1))
	return append(qs, nan, far, inf)
}

// TestNearestGroupMatchesNearest is the differential test of the blocked
// pass: over certStore's shapes and the sim corpora, at N = 511 (below the
// crossover), 512 and 4000, for every group size from 1 to 9 and the k
// ladder of TestCertifiedMatchesExact, with and without excluded rows, a
// grouped query returns exactly what it returns alone. The ladder's top
// three rungs (k ≥ N − 1) leave no room for a shortlist, so a group takes
// them one query at a time, and each is a full sort: they run for groups
// of one and nine, and at N = 4000 for nine only. Groups that mix certified and fallback
// queries must occur, or the test no longer covers the per-query fallback
// inside a group.
func TestNearestGroupMatchesNearest(t *testing.T) {
	mixed := 0
	for shape := 0; shape < storeShapes; shape++ {
		for _, n := range []int{certMinPoints - 1, certMinPoints, 4000} {
			dim := 17
			if shape == storeTiny { // denormal arithmetic is two orders of magnitude slower
				dim = 3
			}
			label := fmt.Sprintf("shape %d n=%d", shape, n)
			ix, q := certStore(int64(100*shape+n), n, dim, shape, nil)
			rng := rand.New(rand.NewSource(int64(shape*7 + n)))
			all := groupQueries(ix, q, rng)
			for g := 1; g <= len(all); g++ {
				qs := all[len(all)-g:] // the NaN, far and −Inf queries join first
				none, some := make([]int, g), make([]int, g)
				for i := range none {
					none[i], some[i] = -1, rng.Intn(n)
				}
				for _, k := range ksFor(n) {
					if k >= n-1 && g != len(all) && (g != 1 || n > certMinPoints) {
						continue
					}
					c0, f0 := ix.ScanStats()
					assertGroupIsSearch(t, label, ix, qs, k, none)
					if c1, f1 := ix.ScanStats(); c1 > c0 && f1 > f0 {
						mixed++
					}
					assertGroupIsSearch(t, label, ix, qs, k, some)
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no group mixed certified and fallback queries")
	}

	// The sim corpora, through the text API.
	cite := simTexts(t, certMinPoints+9)
	corpora := map[string][2][]Item{
		"citations":   {cite[:certMinPoints+1], cite[certMinPoints+1:]},
		"restaurants": imputeItems(dataset.GenerateRestaurants(4000, 9, 3)),
		"buy":         imputeItems(dataset.GenerateBuy(certMinPoints+1, 8, 3)),
	}
	for name, pair := range corpora {
		ix := NewIndex(Default())
		ix.AddAll(pair[0])
		texts := make([]string, len(pair[1]))
		for i, it := range pair[1] {
			texts[i] = it.Text
		}
		for g := 1; g <= len(texts); g++ {
			for _, k := range []int{1, 5, 40} {
				got := ix.NearestGroup(texts[:g], k)
				for i, text := range texts[:g] {
					want := ix.Nearest(text, k)
					if fmt.Sprint(got[i]) != fmt.Sprint(want) {
						t.Fatalf("%s G=%d k=%d query %d: group %v, alone %v", name, g, k, i, got[i], want)
					}
					for j := range want {
						if math.Float64bits(got[i][j].Distance) != math.Float64bits(want[j].Distance) {
							t.Fatalf("%s G=%d k=%d query %d: distance %d differs in its bits", name, g, k, i, j)
						}
					}
				}
			}
		}
		if c, _ := ix.ScanStats(); c == 0 {
			t.Fatalf("%s: no query certified; the corpus no longer reaches the blocked pass", name)
		}
	}
	if got := NewIndex(Default()).NearestGroup([]string{"a", "b"}, 3); len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("an empty index answered %v", got)
	}
}

// FuzzNearestGroup lets the fuzzer pick the store, the group size, k and
// one query's excluded row; through raw it sets store and query bits as in
// FuzzCertifiedNearest. Every grouped answer must be the one search gives.
func FuzzNearestGroup(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(16), uint16(5), uint8(4), uint16(3), uint8(storeGaussian), []byte{})
	f.Add(int64(2), uint16(811), uint8(17), uint16(1), uint8(9), uint16(7), uint8(storeClusters), []byte{})
	f.Add(int64(3), uint16(520), uint8(3), uint16(40), uint8(2), uint16(519), uint8(storeDuplicates), []byte{})
	f.Add(int64(4), uint16(611), uint8(33), uint16(2), uint8(3), uint16(1), uint8(storeConstant), []byte{0, 0, 0xc0, 0x7f})
	f.Add(int64(5), uint16(639), uint8(8), uint16(3), uint8(5), uint16(2), uint8(storeNonFinite), []byte{0, 0, 0x80, 0xff})
	f.Add(int64(6), uint16(590), uint8(5), uint16(2), uint8(4), uint16(0), uint8(storeTiny), []byte{0xff, 0xff, 0x7f, 0x7f})
	f.Add(int64(7), uint16(700), uint8(40), uint16(4), uint8(6), uint16(9), uint8(storeOffset), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim uint8, k uint16, g uint8, skip uint16, shape uint8, raw []byte) {
		rows, width := 1+int(n)%1200, 1+int(dim)%80
		ix, q := certStore(seed, rows, width, int(shape)%storeShapes, raw)
		all := groupQueries(ix, q, rand.New(rand.NewSource(seed)))
		qs := all[:1+int(g)%len(all)]
		skips := make([]int, len(qs))
		for i := range skips {
			skips[i] = -1
		}
		assertGroupIsSearch(t, "fuzz", ix, qs, 1+int(k), skips)
		skips[0] = int(skip) % rows
		assertGroupIsSearch(t, "fuzz", ix, qs, 1+int(k), skips)
	})
}

// groupKernel is one implementation of codeDotGroup under test.
type groupKernel struct {
	name string
	fn   func(rows []int8, stride int, qs []int16, out []int32)
}

// TestCodeDotGroupMatchesGeneric pins every blocked kernel the build has —
// SSE2 and AVX2 on amd64 (groupKernels), the portable loop everywhere — to
// one codeDotGeneric per (row, query), at every stride from 16 to 4096,
// with groups of one to four queries (empty slots must score 0) and with
// every lane −128, the sign-extension stress case.
func TestCodeDotGroupMatchesGeneric(t *testing.T) {
	kernels := append(groupKernels(), groupKernel{"generic", codeDotGroupGeneric})
	rng := rand.New(rand.NewSource(47))
	for stride := quantBlock; stride <= 4096; stride += quantBlock {
		for _, extremal := range []bool{false, true} {
			nq, nrows := 1+rng.Intn(GroupWidth), 1+rng.Intn(3)
			lane := func() int8 {
				if extremal {
					return -128
				}
				return int8(rng.Intn(256) - 128)
			}
			rows := make([]int8, nrows*stride)
			for i := range rows {
				rows[i] = lane()
			}
			qRows := make([][]int8, nq)
			for g := range qRows {
				qRows[g] = make([]int8, stride)
				for i := range qRows[g] {
					qRows[g][i] = lane()
				}
			}
			wide := widenGroup(nil, qRows, stride)
			want := make([]int32, nrows*GroupWidth)
			for r := 0; r < nrows; r++ {
				for g, qRow := range qRows {
					want[r*GroupWidth+g] = codeDotGeneric(qRow, rows[r*stride:(r+1)*stride])
				}
			}
			for _, kern := range kernels {
				got := make([]int32, len(want))
				for i := range got {
					got[i] = 12345 // every sum must be written
				}
				kern.fn(rows, stride, wide, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s stride %d (%d queries, extremal %v): sum %d is %d, want %d",
							kern.name, stride, nq, extremal, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNearestGroupAllocs pins the blocked pass to the single query's
// budget: a warm grouped query allocates what TestCertifiedNearestAllocs
// allows one Nearest (2), plus a quarter of the group's result slice — the
// group's widened queries, dot products, per-query shortlists and top-k
// heaps come from the pools.
func TestNearestGroupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	items := simTexts(t, certMinPoints+100)
	ix := NewIndex(Default())
	ix.AddAll(items[:certMinPoints+50])
	texts := []string{items[certMinPoints+70].Text, items[certMinPoints+71].Text, items[certMinPoints+72].Text, items[certMinPoints+73].Text}
	ix.NearestGroup(texts, 5) // builds the code array, fills the pools
	perQuery := testing.AllocsPerRun(100, func() { ix.NearestGroup(texts, 5) }) / float64(len(texts))
	if c, f := ix.ScanStats(); c == 0 || f != 0 {
		t.Fatalf("the group should certify every time: %d certified, %d fallbacks", c, f)
	}
	t.Logf("%.2f allocations per grouped query", perQuery)
	if perQuery > 2.25 {
		t.Fatalf("a grouped query allocates %.2f times; want at most 2.25, a single Nearest's 2 and a share of the result slice", perQuery)
	}
}

// TestNearestGroupReusedAllocs pins the memo's hit path: a group of four
// that a registry index has answered before allocates the result slice and
// one copy of each remembered list — 5 — and neither embeds nor scans.
func TestNearestGroupReusedAllocs(t *testing.T) {
	items := simTexts(t, certMinPoints+100)
	ix := NewRegistry().Index(Default(), items[:certMinPoints+50])
	texts := []string{items[certMinPoints+70].Text, items[certMinPoints+71].Text, items[certMinPoints+72].Text, items[certMinPoints+73].Text}
	ix.NearestGroup(texts, 5) // the only scan
	c0, f0 := ix.ScanStats()
	allocs := testing.AllocsPerRun(100, func() { ix.NearestGroup(texts, 5) })
	if c, f := ix.ScanStats(); c != c0 || f != f0 {
		t.Fatalf("a reused group scanned: ScanStats moved by %d + %d", c-c0, f-f0)
	}
	if allocs != float64(1+len(texts)) {
		t.Fatalf("a reused group of %d allocates %v times; want %d, the result slice and one copy per query", len(texts), allocs, 1+len(texts))
	}
}
