package embed

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// rawEmbedder gives an index a dimensionality without ever embedding: the
// differential tests insert vectors and search with vectors.
type rawEmbedder int

func (d rawEmbedder) Dim() int               { return int(d) }
func (d rawEmbedder) Embed(string) []float64 { return make([]float64, int(d)) }

// Store shapes certStore builds, each a way the proof could be wrong.
const (
	storeGaussian   = iota // unstructured
	storeClusters          // tight clusters: k-th and (k+1)-th differ in the last ulp, or tie
	storeDuplicates        // a handful of distinct rows repeated: ties broken by insertion order
	storeConstant          // every component equal: the grid's scale falls back to 1
	storeNonFinite         // a few NaN and ±Inf components in the store
	storeTiny              // components near float32's underflow threshold
	storeOffset            // a few float32 ulps of spread a long way from zero
	storeShapes
)

// certStore builds an n × dim index of the given shape and a query near
// it. raw, when present, overwrites the leading store components and then
// the query bit for bit, which is how the fuzzer reaches NaN payloads,
// denormals and whatever else it finds.
func certStore(seed int64, n, dim, shape int, raw []byte) (*Index, []float32) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	gauss := func() []float64 {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		return v
	}
	switch shape {
	case storeClusters:
		centres := [][]float64{gauss(), gauss(), gauss()}
		for i := range rows {
			v := append([]float64(nil), centres[i%len(centres)]...)
			d := rng.Intn(dim)
			x := float32(v[d])
			for step := rng.Intn(3); step > 0; step-- {
				x = math.Nextafter32(x, 10)
			}
			v[d] = float64(x)
			rows[i] = v
		}
	case storeDuplicates:
		distinct := [][]float64{gauss(), gauss(), gauss(), gauss(), gauss()}
		for i := range rows {
			rows[i] = distinct[rng.Intn(len(distinct))]
		}
	case storeConstant:
		for i := range rows {
			rows[i] = make([]float64, dim)
			for d := range rows[i] {
				rows[i][d] = 0.25
			}
		}
	case storeTiny, storeOffset:
		for i := range rows {
			rows[i] = gauss()
			for d := range rows[i] {
				if rows[i][d] *= 1e-22; shape == storeOffset {
					rows[i][d] = 4096 + rows[i][d]*1e19
				}
			}
		}
	default:
		for i := range rows {
			rows[i] = gauss()
		}
		if shape == storeNonFinite {
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				rows[rng.Intn(n)][rng.Intn(dim)] = x
			}
		}
	}
	ix := NewIndex(rawEmbedder(dim))
	for i, v := range rows {
		ix.insert(fmt.Sprintf("v%d", i), v)
	}
	q := make([]float32, dim)
	copy(q, ix.vec(rng.Intn(n)))
	if rng.Intn(2) == 0 {
		q[rng.Intn(dim)] += float32(rng.NormFloat64())
	}
	for i := 0; i+4 <= len(raw); i += 4 {
		x := math.Float32frombits(binary.LittleEndian.Uint32(raw[i:]))
		if at := i / 4; at < len(ix.data) {
			ix.data[at] = x
		} else if at -= len(ix.data); at < dim {
			q[at] = x
		}
	}
	return ix, q
}

// assertSearchIsExact holds Index.search to the exact scan bit for bit:
// the same ids in the same order, and distances equal as float64 bit
// patterns (NaN included — both sides got it from the same arithmetic).
func assertSearchIsExact(t *testing.T, label string, ix *Index, q []float32, k, skip int) {
	t.Helper()
	sc := new(searchScratch)
	got := ix.search(sc, q, k, skip)
	want := ix.exactScan(q, min(k, ix.Len()), skip)
	if len(got) != len(want) {
		t.Fatalf("%s k=%d skip=%d: %d neighbours, exact scan has %d", label, k, skip, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s k=%d skip=%d: neighbour %d is %v, exact scan has %v\n got %v\nwant %v",
				label, k, skip, i, got[i], want[i], got, want)
		}
	}
}

// ksFor is the k ladder of the differential test around an n-row index.
func ksFor(n int) []int { return []int{1, 5, n - 1, n, n + 7} }

// TestCertifiedMatchesExact is the differential property test of the
// certified int8 path: on sim corpora and on stores built to break the
// proof, at sizes around the crossover, for k from 1 past N, with and
// without an excluded row, the flat search returns what the exact scan
// returns, bit for bit. The cluster stores leave no room between the k-th
// and (k+1)-th distance, so they must fall back — and still agree.
func TestCertifiedMatchesExact(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		cite := simTexts(t, certMinPoints+9)
		corpora := map[string][2][]Item{
			"citations":   {cite[:certMinPoints+1], cite[certMinPoints+1:]},
			"restaurants": imputeItems(dataset.GenerateRestaurants(certMinPoints+1, 8, 3)),
			"buy":         imputeItems(dataset.GenerateBuy(certMinPoints+1, 8, 3)),
		}
		for name, pair := range corpora {
			for _, n := range []int{certMinPoints - 1, certMinPoints, certMinPoints + 1} {
				ix := NewIndex(Default())
				ix.AddAll(pair[0][:n])
				for qi, query := range pair[1] {
					q := ix.embed32(nil, query.Text)
					for _, k := range ksFor(n) {
						assertSearchIsExact(t, fmt.Sprintf("%s n=%d q%d", name, n, qi), ix, q, k, -1)
						assertSearchIsExact(t, fmt.Sprintf("%s n=%d q%d", name, n, qi), ix, q, k, qi*37%n)
					}
				}
				if c, _ := ix.ScanStats(); (c > 0) != (n >= certMinPoints) {
					t.Fatalf("%s n=%d: %d certified queries; the path should run from %d rows up and not below", name, n, c, certMinPoints)
				}
			}
		}
	})

	var fallbacks int64
	for shape := 0; shape < storeShapes; shape++ {
		for _, dim := range []int{3, 17, 64, 250} {
			for trial, n := range []int{certMinPoints, certMinPoints + 3} {
				label := fmt.Sprintf("shape %d dim %d n=%d", shape, dim, n)
				ix, q := certStore(int64(1000*shape+10*dim+trial), n, dim, shape, nil)
				far := make([]float32, dim) // every lane clamps
				for d := range far {
					far[d] = q[d]*100 + 50
				}
				nan := append([]float32(nil), q...)
				nan[0] = float32(math.NaN())
				inf := append([]float32(nil), q...)
				inf[dim-1] = float32(math.Inf(-1))
				for _, query := range [][]float32{q, far, nan, inf} {
					for _, k := range ksFor(n) {
						assertSearchIsExact(t, label, ix, query, k, -1)
						assertSearchIsExact(t, label, ix, query, k, n/3)
					}
				}
				c, f := ix.ScanStats()
				if c+f == 0 {
					t.Fatalf("%s: no query entered the certified path", label)
				}
				if shape == storeNonFinite && c > 0 {
					t.Fatalf("%s: %d queries certified against a store holding NaN and Inf", label, c)
				}
				if shape == storeClusters {
					fallbacks += f
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("the cluster stores forced no fallback: the test no longer exercises the exact-scan path")
	}
}

// FuzzCertifiedNearest lets the fuzzer pick the store's shape, size,
// dimensionality, k, the excluded row and — through raw — the exact bits
// of store and query components; search must equal the exact scan.
func FuzzCertifiedNearest(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(16), uint16(5), uint16(0), uint8(storeGaussian), []byte{})
	f.Add(int64(2), uint16(811), uint8(17), uint16(1), uint16(7), uint8(storeClusters), []byte{})
	f.Add(int64(3), uint16(520), uint8(3), uint16(40), uint16(519), uint8(storeDuplicates), []byte{})
	f.Add(int64(4), uint16(611), uint8(33), uint16(900), uint16(1), uint8(storeConstant), []byte{0, 0, 0xc0, 0x7f})
	f.Add(int64(5), uint16(639), uint8(8), uint16(3), uint16(2), uint8(storeNonFinite), []byte{0, 0, 0x80, 0xff, 1, 0, 0, 0})
	f.Add(int64(6), uint16(590), uint8(5), uint16(2), uint16(0), uint8(storeTiny), []byte{0xff, 0xff, 0x7f, 0x7f})
	f.Add(int64(7), uint16(700), uint8(40), uint16(4), uint16(9), uint8(storeOffset), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim uint8, k, skip uint16, shape uint8, raw []byte) {
		rows, width := 1+int(n)%1200, 1+int(dim)%80
		ix, q := certStore(seed, rows, width, int(shape)%storeShapes, raw)
		assertSearchIsExact(t, "fuzz", ix, q, 1+int(k), -1)
		assertSearchIsExact(t, "fuzz", ix, q, 1+int(k), int(skip)%rows)
	})
}

// imputeItems renders an imputation dataset the way impute indexes and
// queries it — every record serialized without the target — as (train,
// test).
func imputeItems(ds *dataset.ImputationDataset) [2][]Item {
	var pair [2][]Item
	for side, recs := range [][]dataset.Record{ds.Train, ds.Test} {
		for _, r := range recs {
			pair[side] = append(pair[side], Item{ID: r.ID, Text: r.WithoutField(ds.TargetField).String()})
		}
	}
	return pair
}

// TestCertifiedRateOnSimCorpora pins the share of traffic that has the
// property: on the benchmark's k-NN corpus — 4000 restaurant records,
// k = 5 — at most 1 % of held-out queries may fall back to the exact scan
// (measured: none of 1280). Queries run from several goroutines, so under
// -race it also covers concurrent first queries sharing one lazy code
// array build.
func TestCertifiedRateOnSimCorpora(t *testing.T) {
	var certified, fallbacks int64
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		pair := imputeItems(dataset.GenerateRestaurants(4000, 256, seed))
		queries := pair[1]
		ix := NewIndex(Default())
		ix.AddAll(pair[0])
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(queries); i += 4 {
					if nn := ix.Nearest(queries[i].Text, 5); len(nn) != 5 {
						t.Errorf("seed %d query %d: %d neighbours", seed, i, len(nn))
					}
				}
			}(g)
		}
		wg.Wait()
		c, f := ix.ScanStats()
		if c+f != int64(len(queries)) {
			t.Fatalf("seed %d: %d certified + %d fallbacks over %d queries", seed, c, f, len(queries))
		}
		certified, fallbacks = certified+c, fallbacks+f
	}
	t.Logf("certified %d, fallbacks %d", certified, fallbacks)
	if fallbacks*100 > certified+fallbacks {
		t.Fatalf("fallback share %d of %d exceeds 1%%", fallbacks, certified+fallbacks)
	}
}

// TestScanStatsSharedByViewsAndRegistry: an index counts its own queries
// past the crossover, and a registry's tally is the sum over every index it
// serves.
func TestScanStatsSharedByViewsAndRegistry(t *testing.T) {
	items := simTexts(t, certMinPoints+40)
	base := NewIndex(Default())
	base.AddAll(items[:certMinPoints])
	base.Nearest(items[certMinPoints].Text, 3)
	base.Nearest(items[certMinPoints+1].Text, certMinPoints) // k too large for a shortlist
	if c, f := base.ScanStats(); c+f != 1 {
		t.Fatalf("one query took the int8 path; ScanStats = %d + %d", c, f)
	}

	reg := NewRegistry()
	reg.Index(Default(), items[:certMinPoints]).Nearest(items[certMinPoints].Text, 3)
	reg.Index(Default(), items[:certMinPoints]).Nearest(items[certMinPoints+1].Text, 3) // the same slot
	reg.Index(Default(), items[1:certMinPoints+1]).Nearest(items[certMinPoints+2].Text, 3)
	reg.Index(Default(), items[:certMinPoints-1]).Nearest(items[certMinPoints].Text, 3) // below the crossover
	if c, f := reg.ScanStats(); c+f != 3 {
		t.Fatalf("the registry's indexes answered three queries past the crossover; ScanStats = %d + %d", c, f)
	}
}
