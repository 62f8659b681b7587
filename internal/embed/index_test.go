package embed

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// referenceEmbed is a verbatim copy of the seed NGramEmbedder.Embed (one
// allocated FNV hasher and Fprintf per gram). The optimised Embed must
// stay byte-identical to it.
func referenceEmbed(e *NGramEmbedder, text string) []float64 {
	v := make([]float64, e.dim)
	norm := strings.ToLower(strings.Join(strings.Fields(text), " "))
	runes := []rune(" " + norm + " ")
	if len(runes) < e.n {
		runes = append(runes, make([]rune, e.n-len(runes))...)
	}
	for i := 0; i+e.n <= len(runes); i++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|", e.seed)
		h.Write([]byte(string(runes[i : i+e.n])))
		sum := h.Sum64()
		bucket := int(sum % uint64(e.dim))
		if sum&(1<<63) != 0 {
			v[bucket]--
		} else {
			v[bucket]++
		}
	}
	normalize(v)
	return v
}

// TestEmbedMatchesReference pins the scratch-buffer Embed rewrite to the
// seed implementation: identical float64 output on every input class the
// normalisation path distinguishes.
func TestEmbedMatchesReference(t *testing.T) {
	inputs := []string{
		"",
		" ",
		"a",
		"ab",
		"  leading and   trailing  ",
		"Hello   World",
		"MIXED case With\tTabs\nand newlines",
		"golden dragon chinese restaurant new york",
		"ünïcödé Grüße ß ΣΙΓΜΑ",
		"日本語のテキストと English mixed",
		" non-breaking spaces ",
		"emoji 🎉 and more 🎊 text",
		string([]byte{0xff, 0xfe, 'a'}), // invalid UTF-8 → RuneError, both paths
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		for w := 0; w < rng.Intn(12); w++ {
			if w > 0 {
				sb.WriteString([]string{" ", "  ", "\t", "\n"}[rng.Intn(4)])
			}
			for c := 0; c < 1+rng.Intn(10); c++ {
				sb.WriteRune(rune('A' + rng.Intn(58)))
			}
		}
		inputs = append(inputs, sb.String())
	}
	for _, dims := range [][2]int{{DefaultDim, 3}, {64, 2}, {17, 5}} {
		e := NewNGramEmbedder(dims[0], dims[1])
		for _, in := range inputs {
			got := e.Embed(in)
			want := referenceEmbed(e, in)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Embed(%q) dim=%d n=%d diverges from reference", in, dims[0], dims[1])
			}
		}
	}
}

// randomCorpus builds n pseudo-word texts with enough near-duplicates to
// exercise ties, clusters, and blocking.
func randomCorpus(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"golden", "dragon", "chinese", "restaurant", "quantum", "lattice",
		"survey", "methods", "indexing", "moving", "objects", "citation", "entity"}
	items := make([]Item, n)
	for i := range items {
		var sb strings.Builder
		for w := 0; w < 3+rng.Intn(4); w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		if rng.Intn(3) == 0 && i > 0 { // near-duplicate of an earlier item
			items[i] = Item{ID: fmt.Sprintf("r%d", i), Text: items[rng.Intn(i)].Text + " x"}
			continue
		}
		items[i] = Item{ID: fmt.Sprintf("r%d", i), Text: sb.String()}
	}
	return items
}

// bruteNearest is the seed algorithm (score everything, stable sort)
// reimplemented over the float32 backing store — the ranking oracle the
// heap must reproduce exactly, ties included.
func bruteNearest(ix *Index, q []float32, k, skip int) []Neighbor {
	type scored struct {
		pos int
		d2  float32
	}
	all := make([]scored, 0, ix.Len())
	for i := 0; i < ix.Len(); i++ {
		if i == skip {
			continue
		}
		all = append(all, scored{i, l2sq32(q, ix.vec(i))})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].d2 < all[b].d2 })
	if k < len(all) {
		all = all[:k]
	}
	out := make([]Neighbor, len(all))
	for i, s := range all {
		out[i] = Neighbor{ID: ix.ids[s.pos], Distance: math.Sqrt(float64(s.d2))}
	}
	return out
}

// TestHeapTopKMatchesSortRanking is the property test: for random corpora,
// query texts, and k, the bounded-heap top-k equals the sort-based ranking
// with ties broken by insertion order.
func TestHeapTopKMatchesSortRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		items := randomCorpus(5+rng.Intn(120), int64(trial))
		ix := NewIndex(Default())
		ix.AddAll(items)
		for qi := 0; qi < 5; qi++ {
			query := items[rng.Intn(len(items))].Text
			k := 1 + rng.Intn(len(items)+2)
			got := ix.Nearest(query, k)
			want := bruteNearest(ix, ix.embed32(nil, query), k, -1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: heap top-%d diverges from sort ranking:\n got %v\nwant %v",
					trial, k, got, want)
			}
		}
	}
}

// TestAddAllMatchesSequentialAdd pins the parallel builder to sequential
// semantics: same ids, same order, same backing vectors, re-add replaces.
func TestAddAllMatchesSequentialAdd(t *testing.T) {
	items := randomCorpus(80, 5)
	items = append(items, Item{ID: items[3].ID, Text: "replacement text"}) // re-add
	seq := NewIndex(Default())
	for _, it := range items {
		seq.Add(it.ID, it.Text)
	}
	par := NewIndex(Default())
	par.AddAll(items)
	if !reflect.DeepEqual(seq.ids, par.ids) || !reflect.DeepEqual(seq.data, par.data) {
		t.Fatal("AddAll diverges from sequential Add")
	}
}

func TestNearestByID(t *testing.T) {
	ix := NewIndex(Default())
	ix.Add("a", "golden dragon chinese restaurant")
	ix.Add("b", "golden dragon chinese restaurnt")
	ix.Add("c", "quantum physics")
	nn := ix.NearestByID("a", 2)
	if len(nn) != 2 || nn[0].ID != "b" || nn[1].ID != "c" {
		t.Fatalf("NearestByID = %+v, want b then c", nn)
	}
	if got := ix.NearestByID("zzz", 2); got != nil {
		t.Fatalf("unknown id should return nil, got %+v", got)
	}
	// NearestByID must agree with NearestOther on the stored text.
	other := ix.NearestOther("golden dragon chinese restaurant", "a", 2)
	if !reflect.DeepEqual(nn, other) {
		t.Fatalf("NearestByID %+v != NearestOther %+v", nn, other)
	}
}

func TestDistanceByID(t *testing.T) {
	ix := NewIndex(Default())
	ix.Add("a", "golden dragon")
	ix.Add("b", "golden dragon restaurant")
	d, ok := ix.DistanceByID("a", "b")
	if !ok || d <= 0 {
		t.Fatalf("DistanceByID = %f, %v", d, ok)
	}
	if self, _ := ix.DistanceByID("a", "a"); self != 0 {
		t.Fatalf("self distance = %f, want 0", self)
	}
	if _, ok := ix.DistanceByID("a", "zzz"); ok {
		t.Fatal("unknown id should report !ok")
	}
}

// singleLinkage is the quadratic reference: union every pair closer than
// threshold, then read components off in insertion order.
func singleLinkage(ix *Index, threshold float64) [][]string {
	n := ix.Len()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	t2 := threshold * threshold
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if float64(l2sq32(ix.vec(i), ix.vec(j))) < t2 {
				parent[find(j)] = find(i)
			}
		}
	}
	blockOf := make(map[int]int)
	var blocks [][]string
	for i := 0; i < n; i++ {
		root := find(i)
		bi, ok := blockOf[root]
		if !ok {
			bi = len(blocks)
			blockOf[root] = bi
			blocks = append(blocks, nil)
		}
		blocks[bi] = append(blocks[bi], ix.ids[i])
	}
	return blocks
}

// clusteredCorpus builds the workload blocking runs on: families of
// near-duplicate records (typo/truncation perturbations of a shared base
// text) that are far from every other family. Intra-family distances sit
// well below the blocking cutoff and cross-family distances well above.
func clusteredCorpus(nFamilies int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	letters := "abcdefghijklmnopqrstuvwxyz"
	var items []Item
	for f := 0; f < nFamilies; f++ {
		var sb strings.Builder
		for w := 0; w < 6; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			for c := 0; c < 4+rng.Intn(6); c++ {
				sb.WriteByte(letters[rng.Intn(26)])
			}
		}
		base := sb.String()
		for m := 0; m < 1+rng.Intn(5); m++ {
			text := base
			if m > 0 { // perturb: one typo
				pos := rng.Intn(len(text))
				text = text[:pos] + string(letters[rng.Intn(26)]) + text[pos+1:]
			}
			items = append(items, Item{ID: fmt.Sprintf("f%dm%d", f, m), Text: text})
		}
	}
	return items
}

// TestBlocksMatchSingleLinkage is the property test: on random clustered
// corpora — the near-duplicate regime blocking thresholds target —
// partition-candidate union-find Blocks equals full quadratic
// single-linkage clustering, under the default partitioning and an
// explicit one.
func TestBlocksMatchSingleLinkage(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		items := clusteredCorpus(4+trial*6, int64(100+trial))
		for _, opts := range []IndexOptions{{}, {Partitions: 3, Seed: 5}} {
			ix := NewIndexWith(Default(), opts)
			ix.AddAll(items)
			for _, threshold := range []float64{0.4, 0.6, 0.8} {
				got := ix.Blocks(threshold)
				want := singleLinkage(ix, threshold)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d threshold %.1f %+v: Blocks diverges from single-linkage:\n got %v\nwant %v",
						trial, threshold, opts, got, want)
				}
			}
		}
	}
}

// TestWithinMatchesBruteForce checks the radius query against a full scan.
func TestWithinMatchesBruteForce(t *testing.T) {
	items := randomCorpus(150, 9)
	ix := NewIndex(Default())
	ix.AddAll(items)
	for _, radius := range []float64{0.3, 0.8, 1.2} {
		query := items[7].Text
		got := ix.Within(query, radius)
		q := ix.embed32(nil, query)
		var want []Neighbor
		for _, nb := range bruteNearest(ix, q, ix.Len(), -1) {
			if nb.Distance <= radius {
				want = append(want, nb)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("radius %.1f: Within diverges from brute force:\n got %v\nwant %v", radius, got, want)
		}
	}
}

// simTexts draws ~1k record texts from the citation generator — the sim
// dataset the entity-resolution workflows query.
func simTexts(t testing.TB, n int) []Item {
	t.Helper()
	corpus := dataset.GenerateCitations(dataset.CitationConfig{
		Entities: 2 * n, Pairs: 10, PositiveFrac: 0.24, Seed: 7,
	})
	if len(corpus.Records) < n {
		t.Fatalf("citation corpus too small: %d < %d", len(corpus.Records), n)
	}
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		items[i] = Item{ID: fmt.Sprintf("c%d", i), Text: corpus.Records[i].Text()}
	}
	return items
}

// syntheticCorpus draws n indexable items plus heldOut query texts from
// the seeded synthetic generator.
func syntheticCorpus(n, heldOut int, seed int64) ([]Item, []string) {
	texts := dataset.GenerateSyntheticTexts(n+heldOut, seed)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("s%d", i), Text: texts[i]}
	}
	return items, texts[n:]
}

// TestConcurrentFirstQuery exercises the build-then-query contract under
// the race detector: many goroutines issue the first queries (triggering
// the lazy partition build) concurrently.
func TestConcurrentFirstQuery(t *testing.T) {
	items := simTexts(t, 200)
	ix := NewIndex(Default())
	ix.AddAll(items)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix.Nearest(items[g].Text, 5)
			ix.Within(items[g+8].Text, 0.8)
			ix.Blocks(0.8)
		}(g)
	}
	wg.Wait()
}

// TestCertifiedNearestAllocs pins the pooled scratch: a warm certified
// Nearest allocates no more than the exact scan does — the embedding and
// the result: 2 allocations — because the query vector, its code row, the
// shortlist and the top-k heap both paths rank through come from
// searchPool.
func TestCertifiedNearestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	items := simTexts(t, certMinPoints+100)
	small := NewIndex(Default())
	small.AddAll(items[:certMinPoints-1])
	big := NewIndex(Default())
	big.AddAll(items[:certMinPoints+50])
	query := items[certMinPoints+70].Text
	big.Nearest(query, 5) // builds the code array, fills the pool
	exact := testing.AllocsPerRun(100, func() { small.Nearest(query, 5) })
	certified := testing.AllocsPerRun(100, func() { big.Nearest(query, 5) })
	if c, f := big.ScanStats(); c == 0 || f != 0 {
		t.Fatalf("the query should certify every time: %d certified, %d fallbacks", c, f)
	}
	if c, f := small.ScanStats(); c+f != 0 {
		t.Fatalf("an index of %d rows is below the crossover, yet %d queries took the int8 path", small.Len(), c+f)
	}
	if certified > exact || exact > 2 {
		t.Fatalf("Nearest allocates %v times certified, %v exact; want certified ≤ exact ≤ 2", certified, exact)
	}
}

// TestNearestClampsK regresses the unclamped heap: k far beyond the index
// size used to size a heap of k entries before a single row was scored
// (neighbors: 1<<40 took a server down). Below the crossover and past it,
// every entrance returns Len() results.
func TestNearestClampsK(t *testing.T) {
	items := simTexts(t, certMinPoints+10)
	for _, n := range []int{10, len(items)} {
		ix := NewIndex(Default())
		ix.AddAll(items[:n])
		if got := ix.Nearest(items[0].Text, 1<<40); len(got) != n {
			t.Fatalf("n=%d: Nearest(k=1<<40) returned %d results", n, len(got))
		}
		if got := ix.NearestOther(items[0].Text, items[0].ID, 1<<40); len(got) != n-1 {
			t.Fatalf("n=%d: NearestOther(k=1<<40) returned %d results", n, len(got))
		}
		if got := ix.NearestByID(items[1].ID, 1<<40); len(got) != n-1 {
			t.Fatalf("n=%d: NearestByID(k=1<<40) returned %d results", n, len(got))
		}
	}
}
