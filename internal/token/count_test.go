package token

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"repro/internal/dataset"
	"repro/internal/prompt"
)

// countRunes is Count as it was written over a []rune conversion: the
// reference the byte-walking Count must match exactly.
func countRunes(s string) int {
	n := 0
	i := 0
	runes := []rune(s)
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case unicode.IsLetter(r):
			j := i
			for j < len(runes) && unicode.IsLetter(runes[j]) {
				j++
			}
			n += wordTokens(j - i)
			i = j
		case unicode.IsDigit(r):
			j := i
			for j < len(runes) && unicode.IsDigit(runes[j]) {
				j++
			}
			n += (j - i + 2) / 3
			i = j
		default:
			n++
			i++
		}
	}
	return n
}

// countCorpus is the differential corpus: random ASCII, random Unicode
// (letters, digits and spaces of several scripts, symbols, emoji),
// random bytes that are mostly not valid UTF-8, valid strings cut
// mid-rune, and prompts rendered the way the operators render them.
func countCorpus() []string {
	rng := rand.New(rand.NewSource(1))
	unicodeRunes := []rune("aZ09 \t\néßçøΩλЖж中文字日本語한국어٣٤٥१२३  　€£—…‘’“”!?.,;:()[]{}🙂🚀👍🏽́‍�")
	var out []string
	for n := 0; n < 2000; n++ {
		size := rng.Intn(80)
		var b strings.Builder
		switch n % 4 {
		case 0:
			for i := 0; i < size; i++ {
				b.WriteByte(byte(rng.Intn(128)))
			}
		case 1:
			for i := 0; i < size; i++ {
				b.WriteRune(unicodeRunes[rng.Intn(len(unicodeRunes))])
			}
		case 2:
			for i := 0; i < size; i++ {
				b.WriteByte(byte(rng.Intn(256)))
			}
		case 3:
			for i := 0; i < size; i++ {
				b.WriteRune(unicodeRunes[rng.Intn(len(unicodeRunes))])
			}
			s := b.String()
			b.Reset()
			if len(s) > 0 {
				cut := rng.Intn(len(s))
				b.WriteString(s[:cut] + "\xff" + s[cut:len(s)-rng.Intn(len(s)-cut+1)])
			}
		}
		out = append(out, b.String())
	}
	names := dataset.FlavorNames()
	for i, name := range names {
		out = append(out,
			prompt.FilterItem(name, "the flavor contains chocolate"),
			prompt.ComparePair(name, names[(i+1)%len(names)], "how chocolatey it is"),
			prompt.Categorize(name, []string{"chocolate", "fruit", "nut", "other"}),
			prompt.RateItem(name, "sweetness", 7))
	}
	out = append(out, prompt.SortList(names, "how chocolatey it is"))
	ds := dataset.GenerateRestaurants(20, 10, 3)
	for _, r := range ds.Test {
		out = append(out, prompt.Impute(r.WithoutField(ds.TargetField).String(), ds.TargetField, nil))
	}
	return out
}

func TestCountMatchesRuneReference(t *testing.T) {
	for _, s := range countCorpus() {
		if got, want := Count(s), countRunes(s); got != want {
			t.Fatalf("Count(%q) = %d, reference %d", s, got, want)
		}
	}
}

func TestCountAllocs(t *testing.T) {
	s := prompt.SortList(dataset.FlavorNames(), "how chocolatey it is") + " \xff日本語 123456"
	if allocs := testing.AllocsPerRun(100, func() { Count(s) }); allocs != 0 {
		t.Fatalf("Count allocates %.1f times per call, want 0", allocs)
	}
}
