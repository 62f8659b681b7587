package embed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// countingEmbedder counts Embed calls; safe for concurrent use.
type countingEmbedder struct {
	inner Embedder
	calls atomic.Int64
}

func (c *countingEmbedder) Embed(text string) []float64 {
	c.calls.Add(1)
	return c.inner.Embed(text)
}

func (c *countingEmbedder) Dim() int { return c.inner.Dim() }

func testItems(n int, prefix string) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("%s-%d", prefix, i), Text: fmt.Sprintf("%s record number %d", prefix, i)}
	}
	return items
}

func TestRegistryReusesIndexForSameCorpus(t *testing.T) {
	em := &countingEmbedder{inner: Default()}
	r := NewRegistry()
	corpus := testItems(20, "a")

	// Every Index call embeds one fingerprint probe on top of the corpus.
	ix1 := r.Index(em, corpus)
	if got := em.calls.Load(); got != 20+1 {
		t.Fatalf("first build embedded %d texts, want 20 + 1 probe", got)
	}
	ix2 := r.Index(em, corpus)
	if ix2 != ix1 {
		t.Fatal("same corpus must return the same index")
	}
	if got := em.calls.Load(); got != 20+2 {
		t.Fatalf("reuse re-embedded the corpus: %d calls, want only a probe added", got)
	}
	if builds, hits := r.Stats(); builds != 1 || hits != 1 {
		t.Fatalf("stats = %d builds / %d hits, want 1/1", builds, hits)
	}

	// Different content — even one changed text — is a different corpus.
	other := testItems(20, "a")
	other[7].Text += " edited"
	if ix3 := r.Index(em, other); ix3 == ix1 {
		t.Fatal("changed corpus must not reuse the index")
	}
	if builds, _ := r.Stats(); builds != 2 {
		t.Fatalf("builds = %d, want 2", builds)
	}

	// A different embedder configuration over the same corpus must not
	// serve the first embedder's vectors, even at equal dimensionality.
	em4 := &countingEmbedder{inner: NewNGramEmbedder(DefaultDim, 4)}
	if ix4 := r.Index(em4, corpus); ix4 == ix1 {
		t.Fatal("different embedder config must not reuse the index")
	}
	if builds, _ := r.Stats(); builds != 3 {
		t.Fatalf("builds = %d, want 3 after foreign-embedder request", builds)
	}
}

// TestRegistryIndexFromRendersOnMissOnly: under a source key the corpus
// is rendered for the first request alone; later requests are hits that
// never call render, and the key's slot is not the slot the same 32 bytes
// would name as an item content hash.
func TestRegistryIndexFromRendersOnMissOnly(t *testing.T) {
	em := Default()
	r := NewRegistry()
	corpus := testItems(20, "a")
	w := NewKeyWriter()
	w.String("what the corpus is rendered from")
	w.Int(len(corpus))
	key := w.Sum()

	renders := 0
	render := func() []Item { renders++; return corpus }
	ix := r.IndexFrom(em, key, IndexOptions{}, render)
	if again := r.IndexFrom(em, key, IndexOptions{}, render); again != ix {
		t.Fatal("same source key must return the same index")
	}
	if builds, hits := r.Stats(); renders != 1 || builds != 1 || hits != 1 {
		t.Fatalf("%d renders, %d builds, %d hits; want 1 each", renders, builds, hits)
	}
	if nn := ix.Nearest(corpus[4].Text, 1); len(nn) != 1 || nn[0].ID != corpus[4].ID {
		t.Fatalf("index under a source key answers %v", nn)
	}

	// IndexWith is the same entrance keyed by the items' own hash: a slot
	// of its own, even if someone passes that very hash as a source key.
	w = NewKeyWriter()
	for _, it := range corpus {
		w.String(it.ID)
		w.String(it.Text)
	}
	byItems := r.IndexWith(em, corpus, IndexOptions{})
	if byItems == ix {
		t.Fatal("an item-keyed request must not be served from a source-keyed slot")
	}
	if forged := r.IndexFrom(em, w.Sum(), IndexOptions{}, func() []Item { return testItems(3, "b") }); forged == byItems {
		t.Fatal("a source key equal to an item hash reached the item-keyed slot")
	}
	if builds, _ := r.Stats(); builds != 3 {
		t.Fatalf("builds = %d, want 3", builds)
	}
}

// TestRegistryConcurrentRequestsBuildOnce hammers one corpus from many
// goroutines; exactly one build may happen and everyone must share it.
func TestRegistryConcurrentRequestsBuildOnce(t *testing.T) {
	em := &countingEmbedder{inner: Default()}
	r := NewRegistry()
	corpus := testItems(30, "c")

	const workers = 16
	results := make([]*Index, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = r.Index(em, corpus)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatal("concurrent requesters got different indexes")
		}
	}
	if got := em.calls.Load(); got != 30+workers {
		t.Fatalf("embedded %d texts, want one build of 30 plus %d probes", got, workers)
	}
	if builds, hits := r.Stats(); builds != 1 || hits != workers-1 {
		t.Fatalf("stats = %d builds / %d hits", builds, hits)
	}
}

// TestRegistryOptionsSeparateSlots: index configurations that partition
// differently must never share a slot, while spellings that normalise to
// the same configuration must.
func TestRegistryOptionsSeparateSlots(t *testing.T) {
	em := Default()
	r := NewRegistry()
	corpus := testItems(25, "o")

	def := r.Index(em, corpus)
	parts := r.IndexWith(em, corpus, IndexOptions{Partitions: 8})
	seeded := r.IndexWith(em, corpus, IndexOptions{Partitions: 8, Seed: 2})
	if def == parts || def == seeded || parts == seeded {
		t.Fatal("distinct index configurations over one corpus must get distinct indexes")
	}
	if builds, _ := r.Stats(); builds != 3 {
		t.Fatalf("builds = %d, want 3 distinct slots", builds)
	}

	// Normalised-equivalent spellings share: Seed 0 is Seed 1.
	if ix := r.IndexWith(em, corpus, IndexOptions{Seed: 1}); ix != def {
		t.Fatal("{Seed: 1} must share the default slot")
	}
	if ix := r.IndexWith(em, corpus, IndexOptions{Partitions: 8, Seed: 1}); ix != parts {
		t.Fatal("{Partitions: 8, Seed: 1} must share the {Partitions: 8} slot")
	}
}

func TestRegistryServedIndexAnswersQueries(t *testing.T) {
	r := NewRegistry()
	em := Default()
	corpus := testItems(10, "q")
	ix := r.Index(em, corpus)
	nn := ix.Nearest(corpus[3].Text, 1)
	if len(nn) != 1 || nn[0].ID != corpus[3].ID {
		t.Fatalf("nearest = %+v, want the record itself", nn)
	}
}
