// Package embed is the vector retrieval layer: deterministic text
// embeddings plus a high-performance k-nearest-neighbour index. It stands
// in for the vendor embedding model (text-embedding-ada-002) used by the
// paper's Table 3 experiment: the toolkit only needs embeddings to rank
// surface-similar records near each other, which character-n-gram hashing
// embeddings do reliably.
//
// The index (index.go) stores vectors in one contiguous float32 backing
// array and answers exact top-k queries with a bounded max-heap; past a
// few hundred items the flat scan runs over an int8 copy of the store
// (quant.go) — an integer kernel shortlists, exact float32 distances
// re-rank, and a per-query certificate proves the answer byte-identical
// to the float32 scan's, which runs instead when the proof does not
// close. That is the only search there is. A k-means partition structure
// (partitions.go) serves the two non-top-k queries: Within prunes with an
// exact centroid-radius bound, Blocks draws its candidate pairs from it.
package embed

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// DefaultDim is the embedding dimensionality used across the toolkit.
// It is far smaller than vendor embeddings (1536) but ample for the
// surface-similarity ranking the workflows rely on.
const DefaultDim = 256

// Embedder converts text to fixed-length vectors.
type Embedder interface {
	// Embed returns the vector for the given text. Implementations must
	// be deterministic (equal inputs yield equal vectors) and safe for
	// concurrent use: Index.AddAll and the engine's operators call Embed
	// from multiple goroutines. NGramEmbedder and httpapi.EmbedClient
	// both satisfy this.
	Embed(text string) []float64
	// Dim returns the vector length produced by Embed.
	Dim() int
}

// NGramEmbedder hashes character n-grams of the lower-cased input into a
// fixed number of buckets and L2-normalises the result. Texts sharing many
// n-grams (near-duplicates, typo variants, truncations) land close in L2
// and cosine distance.
//
// Embed is allocation-light: the normalised rune window lives in a pooled
// scratch buffer and the per-gram FNV-64a hash is computed inline over a
// stack byte buffer, so the only allocation per call is the returned
// vector. Output is byte-identical to the original hasher-per-gram
// implementation (TestEmbedMatchesReference in index_test.go pins this
// against a verbatim reference copy).
type NGramEmbedder struct {
	dim  int
	n    int
	seed uint64
	// seedHash is the FNV-64a state after absorbing "<seed>|", the
	// per-gram prefix the original implementation wrote through
	// fmt.Fprintf; hoisting it out of the gram loop is what makes the
	// inline hash free.
	seedHash uint64
}

// FNV-64a parameters (hash/fnv), inlined so grams hash without an
// allocated hash.Hash64.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvFoldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// NewNGramEmbedder returns an embedder with the given dimensionality and
// n-gram length. Dim must be positive and n at least 2; the constructor
// panics otherwise because both are compile-time choices.
func NewNGramEmbedder(dim, n int) *NGramEmbedder {
	if dim <= 0 || n < 2 {
		panic(fmt.Sprintf("embed: invalid NGramEmbedder(dim=%d, n=%d)", dim, n))
	}
	const seed = 0x9e3779b97f4a7c15
	return &NGramEmbedder{
		dim:      dim,
		n:        n,
		seed:     seed,
		seedHash: fnvFoldString(fnvOffset64, strconv.FormatUint(seed, 10)+"|"),
	}
}

// Default returns the embedder configuration used by the benchmarks:
// 3-grams into DefaultDim buckets. It is one shared instance, immutable
// and safe for concurrent use, so a Registry fingerprints it once however
// many engines take it.
func Default() *NGramEmbedder { return defaultEmbedder }

var defaultEmbedder = NewNGramEmbedder(DefaultDim, 3)

// Dim implements Embedder.
func (e *NGramEmbedder) Dim() int { return e.dim }

// embedScratch holds the normalised rune buffer reused across Embed
// calls. Pooled rather than stored on the embedder so one NGramEmbedder
// stays safe for concurrent use (AddAll embeds in parallel).
type embedScratch struct {
	runes []rune
}

var scratchPool = sync.Pool{
	New: func() any { return &embedScratch{runes: make([]rune, 0, 256)} },
}

// normRunes rebuilds the original normalisation pipeline —
// []rune(" " + ToLower(Join(Fields(text), " ")) + " "), zero-padded to at
// least n runes — in a single pass over the input with no intermediate
// strings.
func (s *embedScratch) normRunes(text string, n int) []rune {
	r := append(s.runes[:0], ' ')
	inField := false
	for _, c := range text {
		if unicode.IsSpace(c) {
			inField = false
			continue
		}
		if !inField && len(r) > 1 {
			r = append(r, ' ')
		}
		inField = true
		r = append(r, unicode.ToLower(c))
	}
	r = append(r, ' ')
	for len(r) < n {
		r = append(r, 0)
	}
	s.runes = r
	return r
}

// Embed implements Embedder.
func (e *NGramEmbedder) Embed(text string) []float64 {
	v := make([]float64, e.dim)
	sc := scratchPool.Get().(*embedScratch)
	runes := sc.normRunes(text, e.n)
	var buf [utf8.UTFMax]byte
	for i := 0; i+e.n <= len(runes); i++ {
		sum := e.seedHash
		for _, c := range runes[i : i+e.n] {
			w := utf8.EncodeRune(buf[:], c)
			for _, b := range buf[:w] {
				sum ^= uint64(b)
				sum *= fnvPrime64
			}
		}
		bucket := int(sum % uint64(e.dim))
		// Signed hashing halves collision bias.
		if sum&(1<<63) != 0 {
			v[bucket]--
		} else {
			v[bucket]++
		}
	}
	scratchPool.Put(sc)
	normalize(v)
	return v
}

func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
}

// L2 returns the Euclidean distance between two equal-length vectors.
// It panics on length mismatch, which indicates mixed embedders.
func L2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("embed: L2 on vectors of different length")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b in [-1, 1]. Zero vectors
// yield similarity 0.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("embed: Cosine on vectors of different length")
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// l2sq32 returns the squared L2 distance between two equal-length float32
// vectors. Four accumulators keep the loop pipelined; the compiler drops
// the bounds checks thanks to the b = b[:len(a)] hint.
func l2sq32(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}
