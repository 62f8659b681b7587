package embed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// wholeListCertify is the oracle for the progressive re-rank: the
// certificate as it stood when every shortlist row was re-ranked and the
// proof tested once, at D_root, the largest code distance in the list.
// keys is the shortlist in any order and qRow the code row it was scored
// with. It returns what search answers on that proof — the certified top
// k, or the exact scan — and whether the proof closed.
func wholeListCertify(ix *Index, q []float32, qRow []int8, keys []uint64, k, skip, width int) ([]Neighbor, bool) {
	qz := ix.ensureQuantized()
	t := new(topK)
	t.reset(k)
	var root uint64
	for _, key := range keys {
		i := int(key & math.MaxUint32)
		t.push(i, l2sq32(q, ix.vec(i)))
		root = max(root, key)
	}
	if len(keys) == width && len(t.idx) == k {
		reach := float64(qz.scale) * math.Sqrt(float64(root>>32))
		lb := reach - qz.residual(q, qRow) - qz.resid
		tau := float64(t.d2[0]) + float64(ix.dim)*0x1p-126
		if lb > certSlack*reach && lb*lb*(1-certSlack) > tau {
			return t.neighbors(ix.ids), true
		}
	}
	return ix.exactScan(q, k, skip), false
}

// smallestKeys is the shortlist by definition: every row's shortKey but
// skip's, sorted, the first width of them.
func smallestKeys(ix *Index, q []float32, skip, width int) ([]int8, []uint64) {
	qz := ix.ensureQuantized()
	qRow, qNorm := qz.encodeQuery(nil, q)
	var keys []uint64
	for i := 0; i < ix.Len(); i++ {
		if i != skip {
			keys = append(keys, shortKey(qz.codeD2(qNorm, qRow, i), i))
		}
	}
	slices.Sort(keys)
	return qRow, keys[:min(width, len(keys))]
}

// anyWidth is shortlistWidth without the crossover, so that indexes below
// it can be certified directly (0: k too large for a shortlist).
func anyWidth(n, k int) int {
	if width := min(max(certShortlist, 4*k), n/2); width >= 4*k {
		return width
	}
	return 0
}

// sameNeighbours fails the test unless got and want hold the same ids in
// the same order with distances equal as float64 bit patterns.
func sameNeighbours(t *testing.T, label string, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours, the whole-list proof gives %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s: neighbour %d is %v, the whole-list proof gives %v", label, i, got[i], want[i])
		}
	}
}

// statsMoved fails the test unless ix's ScanStats moved by exactly
// certified and fallbacks since (c0, f0).
func statsMoved(t *testing.T, label string, ix *Index, c0, f0, certified, fallbacks int64) {
	t.Helper()
	if c, f := ix.ScanStats(); c-c0 != certified || f-f0 != fallbacks {
		t.Fatalf("%s: ScanStats moved by %d certified, %d fallbacks; the whole-list proof gives %d and %d",
			label, c-c0, f-f0, certified, fallbacks)
	}
}

// outcome is the ScanStats step one query makes.
func outcome(ok bool) (certified, fallbacks int64) {
	if ok {
		return 1, 0
	}
	return 0, 1
}

// checkProgressive holds one query's certifiedSearch to the whole-list
// proof: the same ok, the same neighbours, the same ScanStats step. Then it
// hands certify the list cut one row short, which neither proof may
// certify, and, past the crossover, runs search itself. It returns the
// oracle's answer and ok and how many rows the query re-ranked.
func checkProgressive(t *testing.T, label string, ix *Index, q []float32, k, skip, width int) ([]Neighbor, bool, int) {
	t.Helper()
	label = fmt.Sprintf("%s k=%d skip=%d", label, k, skip)
	qRow, keys := smallestKeys(ix, q, skip, width)
	want, wantOK := wholeListCertify(ix, q, qRow, keys, k, skip, width)
	cw, fw := outcome(wantOK)

	sc := new(searchScratch)
	c0, f0 := ix.ScanStats()
	got, ok := ix.certifiedSearch(sc, q, k, skip, width)
	if ok != wantOK {
		t.Fatalf("%s: certified %v after %d rows, the whole-list proof %v", label, ok, sc.reranked, wantOK)
	}
	statsMoved(t, label, ix, c0, f0, cw, fw)
	if ok {
		sameNeighbours(t, label, got, want)
	}
	reranked := sc.reranked

	short := keys[:width-1]
	sc.short.keys = append(sc.short.keys[:0], short...)
	c0, f0 = ix.ScanStats()
	_, shortOK := ix.certify(ix.ensureQuantized(), sc, q, k, width)
	_, oracleOK := wholeListCertify(ix, q, qRow, short, k, skip, width)
	if shortOK || oracleOK {
		t.Fatalf("%s: a shortlist one row short certified (progressive %v, whole list %v)", label, shortOK, oracleOK)
	}
	statsMoved(t, label+" short list", ix, c0, f0, 0, 1)

	if ix.shortlistWidth(k) == width {
		c0, f0 = ix.ScanStats()
		sameNeighbours(t, label+" search", ix.search(new(searchScratch), q, k, skip), want)
		statsMoved(t, label+" search", ix, c0, f0, cw, fw)
	}
	return want, wantOK, reranked
}

// TestProgressiveCertifyMatchesWholeShortlist holds the progressive
// re-rank — rows scored nearest-first, the proof tested after each one at
// the first row not yet re-ranked — to the whole-list proof it replaces:
// on certStore's seven shapes at N = 511, 512 and 4000 with groupQueries'
// NaN, −Inf and clamping queries, one query at a time and in blocked
// groups, and on the sim corpora through the text API, every query
// certifies iff the whole-list proof does, with the same neighbours under
// math.Float64bits and the same ScanStats. On the sim corpora at k = 5 a
// query may re-rank 32 rows on average, a quarter of the list, so a return
// to the whole-list re-rank fails too.
func TestProgressiveCertifyMatchesWholeShortlist(t *testing.T) {
	var certified, fallbacks int
	for shape := 0; shape < storeShapes; shape++ {
		for _, n := range []int{certMinPoints - 1, certMinPoints, 4000} {
			dim := 17
			if shape == storeTiny { // denormal arithmetic is two orders of magnitude slower
				dim = 3
			}
			label := fmt.Sprintf("shape %d n=%d", shape, n)
			ix, q := certStore(int64(300*shape+n), n, dim, shape, nil)
			rng := rand.New(rand.NewSource(int64(shape*11 + n)))
			qs := groupQueries(ix, q, rng)
			for _, k := range []int{1, 5, 40} {
				width := anyWidth(n, k)
				for _, skipped := range []bool{false, true} {
					skips := make([]int, len(qs))
					wants := make([][]Neighbor, len(qs))
					oks := make([]bool, len(qs))
					for g, query := range qs {
						if skips[g] = -1; skipped {
							skips[g] = rng.Intn(n)
						}
						wants[g], oks[g], _ = checkProgressive(t, fmt.Sprintf("%s query %d", label, g), ix, query, k, skips[g], width)
						if oks[g] {
							certified++
						} else {
							fallbacks++
						}
					}
					// The blocked pass, called directly so that N = 511 runs it too.
					for lo := 0; lo < len(qs); lo += GroupWidth {
						hi := min(lo+GroupWidth, len(qs))
						scs := make([]*searchScratch, hi-lo)
						for g := range scs {
							scs[g] = new(searchScratch)
						}
						out := make([][]Neighbor, hi-lo)
						var cw, fw int64
						for _, ok := range oks[lo:hi] {
							c, f := outcome(ok)
							cw, fw = cw+c, fw+f
						}
						c0, f0 := ix.ScanStats()
						ix.certifiedGroup(scs, qs[lo:hi], k, skips[lo:hi], width, out)
						glabel := fmt.Sprintf("%s k=%d group at %d", label, k, lo)
						statsMoved(t, glabel, ix, c0, f0, cw, fw)
						for g := range out {
							sameNeighbours(t, fmt.Sprintf("%s query %d", glabel, lo+g), out[g], wants[lo+g])
						}
					}
				}
			}
		}
	}
	if certified == 0 || fallbacks == 0 {
		t.Fatalf("certStore's queries: %d certified, %d fell back; both must occur", certified, fallbacks)
	}

	// The sim corpora, through the text API.
	cite := simTexts(t, 4096+32)
	corpora := map[string][2][]Item{
		"citations":   {cite[:4096], cite[4096:]},
		"restaurants": imputeItems(dataset.GenerateRestaurants(4000, 32, 3)),
		"buy":         imputeItems(dataset.GenerateBuy(certMinPoints+1, 32, 3)),
	}
	var reranked, queries int
	for name, pair := range corpora {
		ix := NewIndex(Default())
		ix.AddAll(pair[0])
		texts := make([]string, len(pair[1]))
		for i, it := range pair[1] {
			texts[i] = it.Text
		}
		for _, k := range []int{1, 5, 40} {
			width := ix.shortlistWidth(k)
			wants := make([][]Neighbor, len(texts))
			var certified int64
			for i, text := range texts {
				label := fmt.Sprintf("%s query %d", name, i)
				q := ix.embed32(nil, text)
				want, ok, rows := checkProgressive(t, label, ix, q, k, -1, width)
				if wants[i] = want; ok {
					certified++
				}
				if k == 5 {
					reranked, queries = reranked+rows, queries+1
				}
				c0, f0 := ix.ScanStats()
				sameNeighbours(t, label+" Nearest", ix.Nearest(text, k), want)
				cw, fw := outcome(ok)
				statsMoved(t, label+" Nearest", ix, c0, f0, cw, fw)
			}
			c0, f0 := ix.ScanStats()
			for i, got := range ix.NearestGroup(texts, k) {
				sameNeighbours(t, fmt.Sprintf("%s k=%d NearestGroup query %d", name, k, i), got, wants[i])
			}
			statsMoved(t, fmt.Sprintf("%s k=%d NearestGroup", name, k), ix, c0, f0, certified, int64(len(texts))-certified)
			if certified == 0 {
				t.Fatalf("%s k=%d: no query certified", name, k)
			}
		}
	}
	mean := float64(reranked) / float64(queries)
	t.Logf("sim corpora, k = 5: %.1f rows re-ranked per query over %d queries", mean, queries)
	if mean > 32 {
		t.Fatalf("sim corpora, k = 5: %.1f rows re-ranked per query; want at most 32 of %d", mean, certShortlist)
	}
}

// TestShortlistKeepsSmallest is the property test of the shortlist: fed a
// stream of keys the way certifiedSearch feeds it (one row at a time, the
// threshold hoisted into the loop) and the way certifiedGroup does
// (offerBlock over blocks of groupRows rows, one row skipped), it ends
// holding the width smallest keys — what sorting the stream and taking
// width gives — and the hoisted threshold never turns away a key of that
// set. Streams: ascending, descending and random code distances, all
// distances equal, and lengths of exactly width, 2·width and 2·width+1.
func TestShortlistKeepsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type stream struct {
		name  string
		width int
		d2    []int64
	}
	var streams []stream
	for _, width := range []int{5, certShortlist} {
		for _, n := range []int{width, 2 * width, 2*width + 1, 4096} {
			asc, desc, equal, random := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
			for i := range asc {
				asc[i], desc[i], equal[i], random[i] = int64(i), int64(n-i), 7, rng.Int63n(int64(n))
			}
			streams = append(streams,
				stream{fmt.Sprintf("width %d, %d keys ascending", width, n), width, asc},
				stream{fmt.Sprintf("width %d, %d keys descending", width, n), width, desc},
				stream{fmt.Sprintf("width %d, %d keys equal", width, n), width, equal},
				stream{fmt.Sprintf("width %d, %d keys random", width, n), width, random})
		}
	}
	for si, s := range streams {
		width := s.width
		for _, skip := range []int{-1, rng.Intn(len(s.d2))} {
			var want []uint64
			for i, d := range s.d2 {
				if i != skip {
					want = append(want, shortKey(d, i))
				}
			}
			slices.Sort(want)
			want = want[:min(width, len(want))]

			// One row at a time.
			var sl shortlist
			sl.reset(width)
			thr := sl.thr
			for i, d := range s.d2 {
				key := shortKey(d, i)
				if i == skip {
					continue
				}
				if key >= thr {
					if _, found := slices.BinarySearch(want, key); found {
						t.Fatalf("%s skip %d: the threshold turned away %x, one of the %d smallest", s.name, skip, key, width)
					}
					continue
				}
				thr = sl.add(key)
			}
			assertHoldsSmallest(t, fmt.Sprintf("%s skip %d, one at a time", s.name, skip), &sl, want)

			// In blocks, as the group pass offers them: qNorm and dot products
			// 0, each row's norm its code distance.
			norms := make([]int32, len(s.d2))
			for i, d := range s.d2 {
				norms[i] = int32(d)
			}
			dots := make([]int32, groupRows*GroupWidth)
			g := si % GroupWidth
			sl.reset(width)
			for lo := 0; lo < len(norms); lo += groupRows {
				sl.offerBlock(0, norms[lo:min(lo+groupRows, len(norms))], dots, g, lo, skip)
			}
			assertHoldsSmallest(t, fmt.Sprintf("%s skip %d, in blocks", s.name, skip), &sl, want)
		}
	}
}

// assertHoldsSmallest checks a finished shortlist: it holds want, the
// width smallest keys, and nothing larger than its threshold, which is
// no smaller than the largest of want.
func assertHoldsSmallest(t *testing.T, label string, sl *shortlist, want []uint64) {
	t.Helper()
	got := slices.Clone(sl.keys)
	if len(got) < len(want) || len(got) >= 2*sl.width {
		t.Fatalf("%s: %d keys buffered for a width of %d", label, len(got), sl.width)
	}
	for _, key := range got {
		if key > sl.thr {
			t.Fatalf("%s: %x buffered above the threshold %x", label, key, sl.thr)
		}
	}
	selectSmallest(got, len(want))
	got = got[:len(want)]
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: the shortlist's %d smallest are not the stream's\n got %x\nwant %x", label, len(want), got, want)
	}
}
