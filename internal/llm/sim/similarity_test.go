package sim

import (
	"math/rand"
	"strings"
	"testing"
)

// referenceSimilarity is the oracle's trigram Jaccard written the plain
// way: string trigrams of normText in maps. similarity must agree with it
// to the bit.
func referenceSimilarity(a, b string) float64 {
	trigrams := func(s string) map[string]bool {
		out := make(map[string]bool)
		r := []rune(s)
		for i := 0; i+3 <= len(r); i++ {
			out[string(r[i:i+3])] = true
		}
		return out
	}
	ta, tb := trigrams(normText(a)), trigrams(normText(b))
	if len(ta) == 0 || len(tb) == 0 {
		if normText(a) == normText(b) {
			return 1
		}
		return 0
	}
	inter := 0
	for g := range ta {
		if tb[g] {
			inter++
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// similarityAlphabet mixes ASCII, upper case that lowers to another rune,
// several kinds of white space, a 4-byte rune, the highest rune and bytes
// that are not UTF-8.
var similarityAlphabet = []string{
	"a", "b", "c", "A", "B", "É", "é", "İ", "ß", "Σ", "ς", " ", "  ", "\t", "\n",
	" ", " ", "\u0085", "🍫", "\U0010ffff", "\xff", "\xe9", "\xe2\x82", "�", ".", "1",
}

func randomSimilarityText(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteString(similarityAlphabet[rng.Intn(len(similarityAlphabet))])
	}
	return b.String()
}

func TestSimilarityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := randomSimilarityText(rng), randomSimilarityText(rng)
		if rng.Intn(4) == 0 {
			b = a + b // overlapping texts, so Jaccard is not mostly 0
		}
		if got, want := similarity(a, b), referenceSimilarity(a, b); got != want {
			t.Fatalf("similarity(%q, %q) = %v, reference %v", a, b, got, want)
		}
	}
}

func TestNormRunesMatchesNormText(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		s := randomSimilarityText(rng)
		var b strings.Builder
		normRunes(s, func(r rune) { b.WriteRune(r) })
		if got, want := b.String(), normText(s); got != want {
			t.Fatalf("normRunes(%q) = %q, normText %q", s, got, want)
		}
	}
}

func FuzzSimilarity(f *testing.F) {
	f.Add("Café Zürich", "cafe zurich")
	f.Add("caf\xe9 \xff", "CAF\xe9  \xff")
	f.Add("ab", "AB")
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := similarity(a, b), referenceSimilarity(a, b); got != want {
			t.Fatalf("similarity(%q, %q) = %v, reference %v", a, b, got, want)
		}
	})
}
