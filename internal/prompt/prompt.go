// Package prompt is the template library of the toolkit: it renders every
// unit task the declarative engine issues (sort a list, compare a pair,
// rate an item, match two records, impute a value, filter, count, group,
// verify) into plain text from one Template per prompt form, reads such a
// prompt back from the same Template, and parses the model's free-text
// responses into structured answers.
//
// The paper (Section 4, "Mitigating Prompt Brittleness") stresses that
// reliably extracting an answer from an LLM response is itself a data
// management problem; the parsers here are deliberately defensive —
// tolerating explanations, prefixes, re-statements and formatting noise —
// and return ErrUnparseable when no answer can be extracted so callers can
// retry or escalate.
package prompt

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// ErrUnparseable reports that no structured answer could be extracted from
// a model response. Callers typically retry the task or route it to a
// quality-control fallback.
var ErrUnparseable = errors.New("prompt: response is unparseable")

// Example is one few-shot demonstration embedded in a prompt.
type Example struct {
	// Input is the example task text (e.g. a serialized record).
	Input string
	// Output is the desired answer.
	Output string
}

// appendList appends one line per item, numbered from 1, growing dst once.
func appendList(dst []byte, line Template, items []string) []byte {
	n := len(items) * (len(line[0]) + len(strconv.Itoa(len(items))) + len(line[1]) + len(line[2]))
	for _, it := range items {
		n += len(it)
	}
	dst = slices.Grow(dst, n)
	for i, it := range items {
		dst = line.AppendCount(dst, i+1, it)
	}
	return dst
}

// SortList renders the one-prompt sorting task: all items in a single
// prompt, asking for the full ordering, best first.
func SortList(items []string, criterion string) string {
	b := SortListHead.AppendCount(nil, len(items), criterion)
	return string(appendList(b, NumberedLine, items))
}

// ComparePair renders a pairwise comparison task. The answer is expected
// to be "A" or "B".
func ComparePair(a, b, criterion string) string {
	return ComparePairVariant(0, a, b, criterion, false)
}

// CompareTemplateCount is the number of built-in phrasings for the
// pairwise comparison task. Section 4 of the paper ("Mitigating Prompt
// Brittleness") observes that slight rewordings shift accuracy and that
// the effective phrasing differs between models; the toolkit therefore
// ships several templates and lets the planner pick per model.
const CompareTemplateCount = 3

// ComparePairVariant renders one of the CompareTemplateCount phrasings of
// the comparison task. Setting cot appends a chain-of-thought instruction
// ("think step by step"), which trades longer, costlier responses for
// accuracy and requires the defensive answer extraction the paper
// discusses. Variants outside [0, CompareTemplateCount) are reduced
// modulo the count.
func ComparePairVariant(variant int, a, b, criterion string, cot bool) string {
	variant = ((variant % CompareTemplateCount) + CompareTemplateCount) % CompareTemplateCount
	var body []byte
	if t := CompareTemplates[variant]; variant == 0 {
		body = t.Append(nil, a, b, criterion)
	} else {
		body = t.Append(nil, criterion, a, b)
	}
	if cot {
		body = CoTLine.Append(body)
	}
	return string(body)
}

// The per-record templates below (RateItem, MatchPair, Impute, FilterItem,
// Categorize) each come in two forms: AppendX appends the prompt to a
// caller's buffer, so a caller that asks once per record can render into
// one reused buffer; X returns the same bytes as a string.

// RateItem renders a rating task on a 1..scale scale.
func RateItem(item, criterion string, scale int) string {
	return string(AppendRateItem(nil, item, criterion, scale))
}

// AppendRateItem appends RateItem's prompt to dst.
func AppendRateItem(dst []byte, item, criterion string, scale int) []byte {
	return RateItemTemplate.AppendCount(dst, scale, criterion, item)
}

// MatchPair renders the entity-resolution unit task, using the exact
// phrasing reported in the paper's Table 3 case study.
func MatchPair(a, b string) string {
	return string(AppendMatchPair(nil, a, b))
}

// AppendMatchPair appends MatchPair's prompt to dst.
func AppendMatchPair(dst []byte, a, b string) []byte {
	return MatchPairTemplate.Append(dst, a, b)
}

// Impute renders the missing-value imputation task over a serialized
// record ("a1 is v1; a2 is v2; ..."), optionally with few-shot examples.
func Impute(serialized, field string, examples []Example) string {
	return string(AppendImpute(nil, serialized, field, examples))
}

// AppendImpute appends Impute's prompt to dst. The serialized record may
// be given as bytes, so a caller can render it into a buffer of its own.
func AppendImpute[S ~string | ~[]byte](dst []byte, serialized S, field string, examples []Example) []byte {
	dst = ImputeHead.Append(dst)
	if len(examples) > 0 {
		dst = append(dst, Examples[0]...)
		for _, ex := range examples {
			dst = ExampleLine.Append(dst, ex.Input, ex.Output)
		}
		dst = append(dst, Examples[1]...)
	}
	dst = append(append(dst, ImputeRecord[0]...), serialized...)
	dst = strconv.AppendQuote(append(dst, ImputeRecord[1]...), field)
	return append(dst, ImputeRecord[2]...)
}

// FilterItem renders a boolean predicate check on a single item.
func FilterItem(item, predicate string) string {
	return string(AppendFilterItem(nil, item, predicate))
}

// AppendFilterItem appends FilterItem's prompt to dst.
func AppendFilterItem(dst []byte, item, predicate string) []byte {
	return FilterItemTemplate.Append(dst, predicate, item)
}

// CountBatch renders the coarse "eyeball" counting task: estimate the
// fraction of items satisfying the predicate without checking each one.
func CountBatch(items []string, predicate string) string {
	b := CountBatchHead.AppendCount(nil, len(items), predicate)
	return string(appendList(b, NumberedLine, items))
}

// GroupRecords renders the coarse entity-resolution task: partition a
// batch of records into duplicate groups. Records are labelled R1..Rn and
// the answer lists groups like "group: R1, R4".
func GroupRecords(records []string) string {
	b := GroupRecordsHead.AppendCount(nil, len(records))
	return string(appendList(b, RecordLine, records))
}

// Verify renders a follow-up verification task (Section 3.5): ask a model
// whether a previously produced answer is correct.
func Verify(question, answer string) string {
	return string(VerifyTemplate.Append(nil, question, answer))
}

// Categorize renders a single-item classification task over a closed
// category set.
func Categorize(item string, categories []string) string {
	return string(AppendCategorize(nil, item, CategoryList(categories)))
}

const categorySep = ", "

// CategoryList renders a closed category set the way Categorize lists it.
// A caller that assigns many items to one set joins it once and hands the
// result to AppendCategorize.
func CategoryList(categories []string) string {
	return strings.Join(categories, categorySep)
}

// ReadCategoryList is CategoryList's inverse: the categories of a rendered
// set, none for the empty set.
func ReadCategoryList(list string) []string {
	if list == "" {
		return nil
	}
	return strings.Split(list, categorySep)
}

// AppendCategorize appends Categorize's prompt to dst, given the category
// set already rendered by CategoryList.
func AppendCategorize(dst []byte, item, categoryList string) []byte {
	return CategorizeTemplate.Append(dst, categoryList, item)
}

// DiscoverCategories renders the first phase of two-stage clustering
// (Section 3.2): propose a small set of category names for a sample of
// items.
func DiscoverCategories(items []string, maxCategories int) string {
	b := DiscoverCategoriesHead.AppendCount(nil, maxCategories)
	return string(appendList(b, NumberedLine, items))
}

var (
	reAnswerMarker = regexp.MustCompile(`(?i)\banswer(?:\s+is)?\s*[:=]?\s*([ab])\b`)
	reChoiceNoun   = regexp.MustCompile(`(?i)\b(?:item|option|candidate)\s+([ab])\b`)
	reChoiceUpper  = regexp.MustCompile(`\b([AB])\b`)
	reChoiceLetter = regexp.MustCompile(`(?i)\b([ab])\b`)
	numberedLine   = regexp.MustCompile(`^\s*\d+[.)]\s*(.+?)\s*$`)
	percentRe      = regexp.MustCompile(`(\d+(?:\.\d+)?)\s*%`)
	groupLineRe    = regexp.MustCompile(`(?i)^\s*group[^:]*:\s*(.+)$`)
	recordRefRe    = regexp.MustCompile(`(?i)\bR(\d+)\b`)
)

// ParseList extracts an ordered item list from a response: numbered lines
// if present, otherwise every non-empty line. Leading chatter lines that
// end with ':' are skipped.
func ParseList(response string) []string {
	var out []string
	for _, line := range strings.Split(response, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasSuffix(line, ":") {
			continue
		}
		if m := numberedLine.FindStringSubmatch(line); m != nil {
			out = append(out, m[1])
		} else {
			out = append(out, line)
		}
	}
	return out
}

// ParseChoice extracts an A/B answer. It tolerates responses such as
// "Item A", "A.", "I choose B because ...", and falls back to the last
// standalone letter mentioned when the response restates both options
// (the failure mode the paper observed with chain-of-thought answers).
func ParseChoice(response string) (string, error) {
	clean := strings.TrimSpace(response)
	if clean == "" {
		return "", fmt.Errorf("empty response: %w", ErrUnparseable)
	}
	upper := strings.ToUpper(clean)
	// Fast path: response begins with the letter.
	for _, prefix := range []string{"A", "B"} {
		if strings.HasPrefix(upper, prefix) {
			rest := upper[len(prefix):]
			if rest == "" || !isLetter(rest[0]) {
				return prefix, nil
			}
		}
	}
	// "Answer: A" / "the answer is b" — the format chain-of-thought
	// prompts pin; the LAST such marker wins (reasoning may restate both
	// options before settling, the failure mode the paper reports).
	if ms := reAnswerMarker.FindAllStringSubmatch(clean, -1); len(ms) > 0 {
		return strings.ToUpper(ms[len(ms)-1][1]), nil
	}
	// "Item A" / "option b" / "candidate A" style.
	if m := reChoiceNoun.FindStringSubmatch(clean); m != nil {
		return strings.ToUpper(m[1]), nil
	}
	// Last standalone token, case-insensitively — but a lowercase "a" is
	// almost always the article inside free-form reasoning, so lowercase
	// letters only count when the response has no other words.
	if ms := reChoiceUpper.FindAllStringSubmatch(clean, -1); len(ms) > 0 {
		return ms[len(ms)-1][1], nil
	}
	if ms := reChoiceLetter.FindAllStringSubmatch(clean, -1); len(ms) > 0 && len(strings.Fields(clean)) <= 6 {
		return strings.ToUpper(ms[len(ms)-1][1]), nil
	}
	return "", fmt.Errorf("no A/B choice in %q: %w", clean, ErrUnparseable)
}

func isLetter(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// ParseYesNo extracts a boolean from a Yes/No response. Per the paper's
// prompt design, the leading token is authoritative; if the response does
// not start with yes/no, the first occurrence anywhere is used.
//
// Matching is case-insensitive. An ASCII response is matched in place,
// with no lower-cased copy. Any other is lower-cased with strings.ToLower
// first: Unicode case mapping is not byte for byte, and the error text
// quotes the lower-cased response.
func ParseYesNo(response string) (bool, error) {
	clean := strings.TrimSpace(response)
	ascii := isASCII(clean)
	if !ascii {
		clean = strings.ToLower(clean)
	}
	if clean == "" {
		return false, fmt.Errorf("empty response: %w", ErrUnparseable)
	}
	if hasPrefixFold(clean, "yes") {
		return true, nil
	}
	if hasPrefixFold(clean, "no") {
		return false, nil
	}
	yi := indexFold(clean, "yes")
	ni := indexFold(clean, "no")
	switch {
	case yi >= 0 && (ni < 0 || yi < ni):
		return true, nil
	case ni >= 0:
		return false, nil
	}
	if ascii {
		clean = strings.ToLower(clean)
	}
	return false, fmt.Errorf("no yes/no in %q: %w", clean, ErrUnparseable)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// lowerASCII lower-cases one ASCII letter and leaves every other byte.
func lowerASCII(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// hasPrefixFold reports whether s begins with the lower-case ASCII word,
// ignoring ASCII case.
func hasPrefixFold(s, word string) bool {
	if len(s) < len(word) {
		return false
	}
	for i := 0; i < len(word); i++ {
		if lowerASCII(s[i]) != word[i] {
			return false
		}
	}
	return true
}

// indexFold is strings.Index(strings.ToLower(s), word) for an s whose
// lower-casing keeps every byte in place (ASCII, or already lower-cased).
func indexFold(s, word string) int {
	for i := 0; i+len(word) <= len(s); i++ {
		if hasPrefixFold(s[i:], word) {
			return i
		}
	}
	return -1
}

// firstInt returns the leftmost run of ASCII digits in s, with the '-'
// right before it if there is one: what the regexp -?\d+ finds, without
// the regexp machine.
func firstInt(s string) string {
	for i := range len(s) {
		j := i
		if s[j] == '-' {
			j++
		}
		k := j
		for k < len(s) && '0' <= s[k] && s[k] <= '9' {
			k++
		}
		if k > j {
			return s[i:k]
		}
	}
	return ""
}

// ParseRating extracts an integer rating, clamped to [1, scale].
func ParseRating(response string, scale int) (int, error) {
	m := firstInt(response)
	if m == "" {
		return 0, fmt.Errorf("no rating in %q: %w", response, ErrUnparseable)
	}
	v, err := strconv.Atoi(m)
	if err != nil {
		return 0, fmt.Errorf("bad rating %q: %w", m, ErrUnparseable)
	}
	if v < 1 {
		v = 1
	}
	if v > scale {
		v = scale
	}
	return v, nil
}

// ParseValue extracts a short free-text answer: the first non-empty line,
// stripped of common courtesy prefixes ("The value is", "Answer:").
func ParseValue(response string) (string, error) {
	for rest, more := response, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for _, prefix := range []string{"answer:", "the value is", "value:", "output:"} {
			if len(line) > len(prefix) && strings.EqualFold(line[:len(prefix)], prefix) {
				line = strings.TrimSpace(line[len(prefix):])
			}
		}
		line = strings.Trim(line, `"'.`)
		if line != "" {
			return line, nil
		}
	}
	return "", fmt.Errorf("no value line: %w", ErrUnparseable)
}

// ParsePercent extracts a percentage as a fraction in [0, 1].
func ParsePercent(response string) (float64, error) {
	if m := percentRe.FindStringSubmatch(response); m != nil {
		v, err := strconv.ParseFloat(m[1], 64)
		if err == nil {
			if v < 0 {
				v = 0
			}
			if v > 100 {
				v = 100
			}
			return v / 100, nil
		}
	}
	// Bare number fallback ("about 40").
	if m := firstInt(response); m != "" {
		v, err := strconv.ParseFloat(m, 64)
		if err == nil && v >= 0 && v <= 100 {
			return v / 100, nil
		}
	}
	return 0, fmt.Errorf("no percentage in %q: %w", response, ErrUnparseable)
}

// ParseGroups extracts duplicate groups from a GroupRecords response as
// 0-based record indices. Records mentioned in no group are returned as
// singletons when total is positive (the caller passes the batch size);
// indices out of range are dropped.
func ParseGroups(response string, total int) [][]int {
	var groups [][]int
	seen := make(map[int]bool)
	for _, line := range strings.Split(response, "\n") {
		m := groupLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var g []int
		for _, ref := range recordRefRe.FindAllStringSubmatch(m[1], -1) {
			idx, err := strconv.Atoi(ref[1])
			if err != nil || idx < 1 || idx > total || seen[idx-1] {
				continue
			}
			seen[idx-1] = true
			g = append(g, idx-1)
		}
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	for i := 0; i < total; i++ {
		if !seen[i] {
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// PairItem is one pair in a batched comparison prompt.
type PairItem struct {
	A, B string
}

// CompareBatch renders several pairwise comparisons in one prompt — the
// batch-size cost lever of Section 4 ("one can ask the LLM to process a
// small number of comparison tasks in a single prompt, reducing cost and
// latency with implication on accuracy"). The answer format is one letter
// per line, "1: A" style.
func CompareBatch(pairs []PairItem, criterion string) string {
	b := CompareBatchHead.AppendCount(nil, len(pairs), criterion)
	for i, p := range pairs {
		b = PairLine.AppendCount(b, i+1, p.A, p.B)
	}
	return string(b)
}

var batchAnswerRe = regexp.MustCompile(`(?im)^\s*(?:pair\s*)?(\d+)\s*[:.)-]\s*(?:item\s*)?([AB])\b`)

// ParseChoices extracts the per-pair answers of a CompareBatch response
// as a map from 0-based pair index to "A"/"B". Pairs the model skipped are
// absent; out-of-range indices are dropped. An empty result is an
// ErrUnparseable.
func ParseChoices(response string, total int) (map[int]string, error) {
	out := make(map[int]string)
	for _, m := range batchAnswerRe.FindAllStringSubmatch(response, -1) {
		idx, err := strconv.Atoi(m[1])
		if err != nil || idx < 1 || idx > total {
			continue
		}
		out[idx-1] = strings.ToUpper(m[2])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no batch answers in %q: %w", response, ErrUnparseable)
	}
	return out, nil
}
