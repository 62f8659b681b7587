// Package token provides tokenization and pricing facilities used to
// account for the cost of LLM calls.
//
// Real LLM vendors bill per token, with separate input (prompt) and output
// (completion) rates. This package approximates a BPE tokenizer with a
// deterministic word/punctuation splitter whose counts track typical BPE
// counts closely enough for cost modelling, and carries the per-model price
// tables used throughout the toolkit.
package token

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Count returns the approximate number of tokens in s.
//
// The heuristic mirrors how BPE tokenizers behave on English data-processing
// prompts: words of up to four characters are a single token, longer words
// cost roughly one token per four characters, digits group in threes, and
// each punctuation rune is its own token. Whitespace is free (it is folded
// into the following token by real BPE vocabularies).
func Count(s string) int {
	n := 0
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += w
		case unicode.IsLetter(r):
			var chars int
			i, chars = span(s, i, unicode.IsLetter)
			n += wordTokens(chars)
		case unicode.IsDigit(r):
			var digits int
			i, digits = span(s, i, unicode.IsDigit)
			n += (digits + 2) / 3
		default:
			// An invalid byte decodes to RuneError of width 1, so it counts
			// as one token per byte.
			n++
			i += w
		}
	}
	return n
}

// span walks the run of runes matching class that starts at byte i and
// returns the byte offset just past it and its length in runes.
func span(s string, i int, class func(rune) bool) (end, runes int) {
	for i < len(s) {
		r, w := utf8.DecodeRuneInString(s[i:])
		if !class(r) {
			break
		}
		i += w
		runes++
	}
	return i, runes
}

// wordTokens approximates BPE sub-word splitting: short words are single
// tokens, longer words split roughly every four characters.
func wordTokens(chars int) int {
	if chars <= 4 {
		return 1
	}
	return (chars + 3) / 4
}

// CountAll returns the total token count across all strings.
func CountAll(ss []string) int {
	n := 0
	for _, s := range ss {
		n += Count(s)
	}
	return n
}

// Usage records the token consumption of one or more LLM calls.
type Usage struct {
	// PromptTokens is the number of tokens sent to the model.
	PromptTokens int
	// CompletionTokens is the number of tokens generated by the model.
	CompletionTokens int
	// Calls is the number of LLM invocations aggregated into this usage.
	Calls int
}

// Total returns prompt plus completion tokens.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Add returns the element-wise sum of u and v.
func (u Usage) Add(v Usage) Usage {
	return Usage{
		PromptTokens:     u.PromptTokens + v.PromptTokens,
		CompletionTokens: u.CompletionTokens + v.CompletionTokens,
		Calls:            u.Calls + v.Calls,
	}
}

// Sub returns u minus v. Negative components are permitted; callers that
// need non-negative budgets should validate separately.
func (u Usage) Sub(v Usage) Usage {
	return Usage{
		PromptTokens:     u.PromptTokens - v.PromptTokens,
		CompletionTokens: u.CompletionTokens - v.CompletionTokens,
		Calls:            u.Calls - v.Calls,
	}
}

// IsZero reports whether the usage is entirely zero.
func (u Usage) IsZero() bool {
	return u.PromptTokens == 0 && u.CompletionTokens == 0 && u.Calls == 0
}

// Price is a per-token price pair in dollars per 1000 tokens, the unit used
// by the major vendors.
type Price struct {
	// InputPer1K is the dollar cost of 1000 prompt tokens.
	InputPer1K float64
	// OutputPer1K is the dollar cost of 1000 completion tokens.
	OutputPer1K float64
}

// Cost returns the dollar cost of the given usage at this price.
func (p Price) Cost(u Usage) float64 {
	return p.InputPer1K*float64(u.PromptTokens)/1000 +
		p.OutputPer1K*float64(u.CompletionTokens)/1000
}

// prices holds the built-in price table. The simulated models reuse the
// public list prices of the vendor models they stand in for (mid-2023
// rates, matching the paper's experimental period).
var prices = map[string]Price{
	"sim-gpt-3.5-turbo": {InputPer1K: 0.0015, OutputPer1K: 0.002},
	"sim-gpt-4":         {InputPer1K: 0.03, OutputPer1K: 0.06},
	"sim-claude":        {InputPer1K: 0.008, OutputPer1K: 0.024},
	"sim-claude-2":      {InputPer1K: 0.008, OutputPer1K: 0.024},
	"sim-cheap":         {InputPer1K: 0.0002, OutputPer1K: 0.0002},
	"sim-embedding":     {InputPer1K: 0.0001, OutputPer1K: 0},
}

// PriceFor returns the price table entry for the named model. Unknown
// models fall back to the sim-gpt-3.5-turbo rate so cost accounting never
// silently vanishes.
func PriceFor(model string) Price {
	if p, ok := prices[model]; ok {
		return p
	}
	return prices["sim-gpt-3.5-turbo"]
}

// RegisterPrice installs or overrides the price for a model name. It is
// intended for tests and for wiring user-supplied models into the planner's
// cost model.
func RegisterPrice(model string, p Price) {
	prices[model] = p
}

// TruncateToTokens returns the longest prefix of s (on rune boundaries)
// whose token count does not exceed limit. It is used by the simulator to
// emulate max-token output truncation.
func TruncateToTokens(s string, limit int) string {
	if limit <= 0 {
		return ""
	}
	if Count(s) <= limit {
		return s
	}
	// Binary search on the rune prefix length.
	runes := []rune(s)
	lo, hi := 0, len(runes)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if Count(string(runes[:mid])) <= limit {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return strings.TrimRight(string(runes[:lo]), " \t\n")
}
