package sim

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/dataset"
)

// Criterion is one ranking dimension the oracle understands. Match decides
// whether a criterion string in a prompt refers to it; Score maps an item
// to the latent score the error models corrupt. Lex marks lexicographic
// criteria, which the oracle handles by direct string comparison ("most"
// meaning alphabetically first).
type Criterion struct {
	// Name identifies the criterion in diagnostics.
	Name string
	// Match reports whether the prompt's criterion text refers to this
	// criterion.
	Match func(criterionText string) bool
	// Score returns the latent score of an item (higher = "more"), and
	// whether the item is known. Nil for lexicographic criteria.
	Score func(item string) (float64, bool)
	// Lex marks a lexicographic (dictionary-order) criterion.
	Lex bool
}

// Predicate is one boolean property the oracle can check. Truth returns
// the noiseless answer plus a margin in [0, 1] expressing how far the item
// is from the decision boundary (0 = borderline, 1 = obvious); the filter
// error model flips borderline items more often.
type Predicate struct {
	// Name identifies the predicate in diagnostics.
	Name string
	// Match reports whether the prompt's predicate text refers to it.
	Match func(predicateText string) bool
	// Truth returns the noiseless answer and the decision margin.
	Truth func(item string) (answer bool, margin float64)
}

// RegisterCriterion adds a custom ranking dimension. Not safe to call
// concurrently with Complete.
func (o *Oracle) RegisterCriterion(c Criterion) { o.criteria = append(o.criteria, c) }

// RegisterPredicate adds a custom boolean property. Not safe to call
// concurrently with Complete.
func (o *Oracle) RegisterPredicate(p Predicate) { o.predicates = append(o.predicates, p) }

// criterionFor resolves a prompt's criterion text; the fallback is a
// hash-free "unknown" criterion scored at 0, which makes the oracle answer
// arbitrarily but deterministically.
func (o *Oracle) criterionFor(text string) Criterion {
	for _, c := range o.criteria {
		if c.Match(text) {
			return c
		}
	}
	return Criterion{
		Name:  "unknown",
		Match: func(string) bool { return true },
		Score: func(string) (float64, bool) { return 0, false },
	}
}

func (o *Oracle) predicateFor(text string) Predicate {
	for _, p := range o.predicates {
		if p.Match(text) {
			return p
		}
	}
	return Predicate{
		Name:  "unknown",
		Match: func(string) bool { return true },
		Truth: func(string) (bool, float64) { return false, 0 },
	}
}

func builtinCriteria() []Criterion {
	return []Criterion{
		{
			Name:  "chocolatey",
			Match: func(s string) bool { return strings.Contains(strings.ToLower(s), "chocolatey") },
			Score: func(item string) (float64, bool) {
				return dataset.FlavorScore(strings.ToLower(strings.TrimSpace(item)))
			},
		},
		{
			Name:  "alphabetical",
			Match: func(s string) bool { return strings.Contains(strings.ToLower(s), "alphabetical") },
			Lex:   true,
		},
		{
			Name:  "numeric",
			Match: func(s string) bool { return strings.Contains(strings.ToLower(s), "numeric value") },
			Score: func(item string) (float64, bool) {
				v, err := strconv.ParseFloat(strings.TrimSpace(item), 64)
				if err != nil {
					return 0, false
				}
				return v, true
			},
		},
	}
}

func builtinPredicates() []Predicate {
	return []Predicate{
		{
			Name: "chocolatey-flavor",
			Match: func(s string) bool {
				return strings.Contains(strings.ToLower(s), "chocolatey flavor")
			},
			Truth: func(item string) (bool, float64) {
				s, ok := dataset.FlavorScore(strings.ToLower(strings.TrimSpace(item)))
				if !ok {
					return false, 0
				}
				const threshold = 0.5
				margin := s - threshold
				if margin < 0 {
					margin = -margin
				}
				return s > threshold, margin * 2
			},
		},
		{
			Name: "numeric-positive",
			Match: func(s string) bool {
				return strings.Contains(strings.ToLower(s), "positive number")
			},
			Truth: func(item string) (bool, float64) {
				v, err := strconv.ParseFloat(strings.TrimSpace(item), 64)
				if err != nil {
					return false, 0
				}
				m := v
				if m < 0 {
					m = -m
				}
				if m > 1 {
					m = 1
				}
				return v > 0, m
			},
		},
	}
}

// similarity is the oracle's perception of how alike two record texts are:
// Jaccard overlap of character trigrams on normalised text (normText). It
// drives the entity-match, grouping and categorisation answers.
func similarity(a, b string) float64 {
	sc := getTrigramScratch()
	defer trigramPool.Put(sc)
	sc.add(a)
	sc.add(b)
	return sc.jaccard(0, 1, a, b)
}

// trigramScratch holds trigram sets back to back in one reused slice, so a
// call that compares many texts builds each text's set once and allocates
// nothing once the pool is warm. A set is the sorted, deduplicated
// trigrams of a text's normText form, each trigram three runes packed into
// a uint64 at 21 bits a rune (every rune fits in 21 bits, so distinct
// trigrams get distinct keys).
type trigramScratch struct {
	keys []uint64
	ends []int // ends[i] is where set i stops in keys
}

var trigramPool = sync.Pool{New: func() any { return new(trigramScratch) }}

// getTrigramScratch takes an emptied scratch from the pool; the caller
// puts it back when done.
func getTrigramScratch() *trigramScratch {
	sc := trigramPool.Get().(*trigramScratch)
	sc.keys, sc.ends = sc.keys[:0], sc.ends[:0]
	return sc
}

// add appends the trigram set of text as the next set.
func (sc *trigramScratch) add(text string) {
	start := len(sc.keys)
	var win [3]rune
	n := 0
	normRunes(text, func(r rune) {
		win[0], win[1], win[2] = win[1], win[2], r
		if n++; n >= 3 {
			sc.keys = append(sc.keys, uint64(win[0])<<42|uint64(win[1])<<21|uint64(win[2]))
		}
	})
	set := sc.keys[start:]
	slices.Sort(set)
	sc.keys = sc.keys[:start+len(slices.Compact(set))]
	sc.ends = append(sc.ends, len(sc.keys))
}

func (sc *trigramScratch) set(i int) []uint64 {
	start := 0
	if i > 0 {
		start = sc.ends[i-1]
	}
	return sc.keys[start:sc.ends[i]]
}

// jaccard is the trigram overlap of sets i and j, built from texts a and b.
// When either text is too short to have a trigram, the texts are alike
// only if they normalise to the same string.
func (sc *trigramScratch) jaccard(i, j int, a, b string) float64 {
	ta, tb := sc.set(i), sc.set(j)
	if len(ta) == 0 || len(tb) == 0 {
		if normText(a) == normText(b) {
			return 1
		}
		return 0
	}
	inter := 0
	for x, y := 0, 0; x < len(ta) && y < len(tb); {
		switch {
		case ta[x] < tb[y]:
			x++
		case ta[x] > tb[y]:
			y++
		default:
			inter++
			x++
			y++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

// normRunes calls emit with each rune of normText(s) in order, without
// building the string: runes are lowered, runs of white space fold to one
// space, and leading and trailing space is dropped. An invalid byte reads
// as utf8.RuneError, as strings.ToLower renders it.
func normRunes(s string, emit func(rune)) {
	word, space := false, false
	for _, r := range s {
		r = unicode.ToLower(r)
		if unicode.IsSpace(r) {
			space = word
			continue
		}
		if space {
			emit(' ')
			space = false
		}
		word = true
		emit(r)
	}
}

// restaurantKnowledge answers a city imputation from a serialized
// restaurant record: the oracle "knows" US metro area codes. It returns
// the gold-form city and whether the key evidence was found.
func restaurantKnowledge(serialized string) (string, bool) {
	// Extract "phone is NNN-..." from the serialization.
	idx := strings.Index(serialized, "phone is ")
	if idx < 0 {
		return "", false
	}
	rest := serialized[idx+len("phone is "):]
	end := strings.IndexAny(rest, ";")
	if end >= 0 {
		rest = rest[:end]
	}
	code := strings.SplitN(strings.TrimSpace(rest), "-", 2)[0]
	return dataset.CityForAreaCode(code)
}

// productSKUKnowledge answers a manufacturer imputation from the SKU
// prefix of the model number in the description ("model number SN482"),
// the way a real LLM recognises vendor SKU patterns.
func productSKUKnowledge(serialized string) (string, bool) {
	idx := strings.Index(serialized, "model number ")
	if idx < 0 {
		return "", false
	}
	rest := strings.TrimSpace(serialized[idx+len("model number "):])
	if end := strings.IndexAny(rest, "; "); end >= 0 {
		rest = rest[:end]
	}
	return dataset.ManufacturerForModelPrefix(rest)
}

// productKnowledge answers a manufacturer imputation from a serialized
// product record via the brand token leading the product name.
func productKnowledge(serialized string) (string, bool) {
	idx := strings.Index(serialized, "name is ")
	if idx < 0 {
		return "", false
	}
	rest := serialized[idx+len("name is "):]
	if end := strings.IndexAny(rest, ";"); end >= 0 {
		rest = rest[:end]
	}
	return dataset.ManufacturerForNameWord(strings.TrimSpace(rest))
}
