package prompt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// long is a 2 KB input, longer than any buffer a template starts from.
var long = strings.Repeat("chocolate fudge ", 128)

// templateInputs are the strings TestTemplatesByteIdentical feeds every
// argument of every per-record template: the ones a format verb could
// mangle (%, quotes, backslash, control characters), non-ASCII text, and
// one long enough to make an append grow its buffer several times.
var templateInputs = []string{"", "%", `"`, `\`, "\n", "\t", "Café Ünïcødé 東京 🍦", long}

// templateGolden holds, per input s, each template's output as rendered by
// the fmt.Sprintf code the append forms replaced, for the arguments listed
// in TestTemplatesByteIdentical. The literals were generated by that code.
var templateGolden = []struct {
	filter, categorize, categorizeNone, rate, impute, imputeShots, match, record string
}{
	{
		filter:         "Does the following item satisfy the condition: |pred?\nItem: |item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: |c1, c2.\nItem: |item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: \nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by |crit.\nItem: |item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: |rec.\nWhat is the value of the missing attribute \"|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: |in\nOutput: |out\nInput: in2\nOutput: out2\n\nRecord: |rec.\nWhat is the value of the missing attribute \"|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is |a\nCitation B is |b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         "|n is |v; n2 is v2",
	},
	{
		filter:         "Does the following item satisfy the condition: %|pred?\nItem: %|item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: %|c1, c2.\nItem: %|item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: %\nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by %|crit.\nItem: %|item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: %|rec.\nWhat is the value of the missing attribute \"%|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: %|in\nOutput: %|out\nInput: in2\nOutput: out2\n\nRecord: %|rec.\nWhat is the value of the missing attribute \"%|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is %|a\nCitation B is %|b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         "%|n is %|v; n2 is v2",
	},
	{
		filter:         "Does the following item satisfy the condition: \"|pred?\nItem: \"|item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: \"|c1, c2.\nItem: \"|item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: \"\nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by \"|crit.\nItem: \"|item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: \"|rec.\nWhat is the value of the missing attribute \"\\\"|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: \"|in\nOutput: \"|out\nInput: in2\nOutput: out2\n\nRecord: \"|rec.\nWhat is the value of the missing attribute \"\\\"|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is \"|a\nCitation B is \"|b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         "\"|n is \"|v; n2 is v2",
	},
	{
		filter:         "Does the following item satisfy the condition: \\|pred?\nItem: \\|item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: \\|c1, c2.\nItem: \\|item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: \\\nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by \\|crit.\nItem: \\|item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: \\|rec.\nWhat is the value of the missing attribute \"\\\\|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: \\|in\nOutput: \\|out\nInput: in2\nOutput: out2\n\nRecord: \\|rec.\nWhat is the value of the missing attribute \"\\\\|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is \\|a\nCitation B is \\|b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         "\\|n is \\|v; n2 is v2",
	},
	{
		filter:         "Does the following item satisfy the condition: \n|pred?\nItem: \n|item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: \n|c1, c2.\nItem: \n|item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: \n\nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by \n|crit.\nItem: \n|item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: \n|rec.\nWhat is the value of the missing attribute \"\\n|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: \n|in\nOutput: \n|out\nInput: in2\nOutput: out2\n\nRecord: \n|rec.\nWhat is the value of the missing attribute \"\\n|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is \n|a\nCitation B is \n|b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         "\n|n is \n|v; n2 is v2",
	},
	{
		filter:         "Does the following item satisfy the condition: \t|pred?\nItem: \t|item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: \t|c1, c2.\nItem: \t|item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: \t\nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by \t|crit.\nItem: \t|item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: \t|rec.\nWhat is the value of the missing attribute \"\\t|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: \t|in\nOutput: \t|out\nInput: in2\nOutput: out2\n\nRecord: \t|rec.\nWhat is the value of the missing attribute \"\\t|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is \t|a\nCitation B is \t|b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         "\t|n is \t|v; n2 is v2",
	},
	{
		filter:         "Does the following item satisfy the condition: Café Ünïcødé 東京 🍦|pred?\nItem: Café Ünïcødé 東京 🍦|item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: Café Ünïcødé 東京 🍦|c1, c2.\nItem: Café Ünïcødé 東京 🍦|item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: Café Ünïcødé 東京 🍦\nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by Café Ünïcødé 東京 🍦|crit.\nItem: Café Ünïcødé 東京 🍦|item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: Café Ünïcødé 東京 🍦|rec.\nWhat is the value of the missing attribute \"Café Ünïcødé 東京 🍦|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: Café Ünïcødé 東京 🍦|in\nOutput: Café Ünïcødé 東京 🍦|out\nInput: in2\nOutput: out2\n\nRecord: Café Ünïcødé 東京 🍦|rec.\nWhat is the value of the missing attribute \"Café Ünïcødé 東京 🍦|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is Café Ünïcødé 東京 🍦|a\nCitation B is Café Ünïcødé 東京 🍦|b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         "Café Ünïcødé 東京 🍦|n is Café Ünïcødé 東京 🍦|v; n2 is v2",
	},
	{
		filter:         "Does the following item satisfy the condition: " + long + "|pred?\nItem: " + long + "|item\nAnswer Yes or No.\n",
		categorize:     "Assign the following item to exactly one of these categories: " + long + "|c1, c2.\nItem: " + long + "|item\nAnswer with only the category name.\n",
		categorizeNone: "Assign the following item to exactly one of these categories: .\nItem: " + long + "\nAnswer with only the category name.\n",
		rate:           "On a scale of 1 (least) to 7 (most), rate the following item by " + long + "|crit.\nItem: " + long + "|item\nAnswer with a single number.\n",
		impute:         "Fill in the missing attribute of a record.\nRecord: " + long + "|rec.\nWhat is the value of the missing attribute \"" + long + "|field\"? Answer with only the value.\n",
		imputeShots:    "Fill in the missing attribute of a record.\nHere are some examples:\nInput: " + long + "|in\nOutput: " + long + "|out\nInput: in2\nOutput: out2\n\nRecord: " + long + "|rec.\nWhat is the value of the missing attribute \"" + long + "|field\"? Answer with only the value.\n",
		match:          "Are Citation A and Citation B the same? Yes or No?\nCitation A is " + long + "|a\nCitation B is " + long + "|b\nAre Citation A and Citation B the same? Start your response with Yes or No.\n",
		record:         long + "|n is " + long + "|v; n2 is v2",
	},
}

// TestTemplatesByteIdentical: every per-record template renders exactly
// the bytes of its fmt-based predecessor, in its string form and in its
// append form (which must also keep what dst already held). Prompt bytes
// are cache keys and cache-log records, so any drift would turn every
// warm ask into a miss.
func TestTemplatesByteIdentical(t *testing.T) {
	if len(templateGolden) != len(templateInputs) {
		t.Fatalf("%d golden rows for %d inputs", len(templateGolden), len(templateInputs))
	}
	const prefix = "dst|"
	check := func(name, s, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s(%.20q...):\n got %q\nwant %q", name, s, got, want)
		}
	}
	for i, s := range templateInputs {
		g := templateGolden[i]
		shots := []Example{{Input: s + "|in", Output: s + "|out"}, {Input: "in2", Output: "out2"}}
		cats := []string{s + "|c1", "c2"}
		rec := dataset.Record{ID: "r", Fields: []dataset.Field{{Name: s + "|n", Value: s + "|v"}, {Name: "n2", Value: "v2"}}}

		check("FilterItem", s, FilterItem(s+"|item", s+"|pred"), g.filter)
		check("AppendFilterItem", s, string(AppendFilterItem([]byte(prefix), s+"|item", s+"|pred")), prefix+g.filter)
		check("Categorize", s, Categorize(s+"|item", cats), g.categorize)
		check("AppendCategorize", s, string(AppendCategorize([]byte(prefix), s+"|item", CategoryList(cats))), prefix+g.categorize)
		check("Categorize/none", s, Categorize(s, nil), g.categorizeNone)
		check("AppendCategorize/none", s, string(AppendCategorize([]byte(prefix), s, CategoryList(nil))), prefix+g.categorizeNone)
		check("RateItem", s, RateItem(s+"|item", s+"|crit", 7), g.rate)
		check("AppendRateItem", s, string(AppendRateItem([]byte(prefix), s+"|item", s+"|crit", 7)), prefix+g.rate)
		check("Impute", s, Impute(s+"|rec", s+"|field", nil), g.impute)
		check("AppendImpute", s, string(AppendImpute([]byte(prefix), s+"|rec", s+"|field", nil)), prefix+g.impute)
		check("AppendImpute/bytes", s, string(AppendImpute([]byte(prefix), []byte(s+"|rec"), s+"|field", nil)), prefix+g.impute)
		check("Impute/shots", s, Impute(s+"|rec", s+"|field", shots), g.imputeShots)
		check("AppendImpute/shots", s, string(AppendImpute([]byte(prefix), s+"|rec", s+"|field", shots)), prefix+g.imputeShots)
		check("MatchPair", s, MatchPair(s+"|a", s+"|b"), g.match)
		check("AppendMatchPair", s, string(AppendMatchPair([]byte(prefix), s+"|a", s+"|b")), prefix+g.match)
		check("Record.String", s, rec.String(), g.record)
		check("Record.AppendWithout", s, string(rec.AppendWithout([]byte(prefix), "absent")), prefix+g.record)
		check("Record.AppendWithout/n2", s, string(rec.AppendWithout(nil, "n2")), rec.WithoutField("n2").String())
	}
	check("Record.String/empty", "", dataset.Record{}.String(), "")
}

// TestListEnvelopesAllocOnce: TaskBatch and CompareBatch size their buffer
// for every line before writing the first, so an 8-task envelope and an
// 8-pair batch each cost that buffer and the string it becomes.
func TestListEnvelopesAllocOnce(t *testing.T) {
	prompts := make([]string, 8)
	pairs := make([]PairItem, 8)
	for i := range prompts {
		prompts[i] = FilterItem(fmt.Sprintf("flavor %d, churned slowly with cream", i), "the flavor is sweet")
		pairs[i] = PairItem{A: fmt.Sprintf("flavor %d", i), B: fmt.Sprintf("flavor %d", i+8)}
	}
	var sink string
	for _, r := range []struct {
		name   string
		render func()
	}{
		{"TaskBatch", func() { sink = TaskBatch(prompts) }},
		{"CompareBatch", func() { sink = CompareBatch(pairs, "sweetness") }},
	} {
		if n := testing.AllocsPerRun(20, r.render); n > 2 {
			t.Errorf("%s: %.0f allocations per render (%d B), want at most 2", r.name, n, len(sink))
		}
	}
}

// refParseYesNo and refParseValue are ParseYesNo and ParseValue as they
// were before they stopped allocating: lower-case the whole response,
// split it into lines.
func refParseYesNo(response string) (bool, error) {
	clean := strings.ToLower(strings.TrimSpace(response))
	if clean == "" {
		return false, fmt.Errorf("empty response: %w", ErrUnparseable)
	}
	if strings.HasPrefix(clean, "yes") {
		return true, nil
	}
	if strings.HasPrefix(clean, "no") {
		return false, nil
	}
	yi := strings.Index(clean, "yes")
	ni := strings.Index(clean, "no")
	switch {
	case yi >= 0 && (ni < 0 || yi < ni):
		return true, nil
	case ni >= 0:
		return false, nil
	}
	return false, fmt.Errorf("no yes/no in %q: %w", clean, ErrUnparseable)
}

func refParseValue(response string) (string, error) {
	for _, line := range strings.Split(response, "\n") {
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

// TestParsersMatchReference: ParseYesNo and ParseValue give exactly the
// answers and errors of their reference forms, on hand-picked responses
// (mixed case, Unicode whose lower-casing changes its length or makes
// ASCII letters, invalid UTF-8) and on random strings over an alphabet
// built to hit every branch.
func TestParsersMatchReference(t *testing.T) {
	inputs := []string{
		"", " ", "\n\n", "Yes", "NO", "  yes.", "Nope", "yEs, they match", "I think so... YES",
		"Unknown", "knot", "maybe", "İs it? yes", "İİİ no", "Know", "ＹＥＳ", "Ünïcødé",
		"Answer: Berkeley.", "\n  The value is 'cafe'\nsecond", "VALUE:\"x\"", "output:", "answer:\n\"'.\"\nreal",
		"\t\"Berkeley\"\t\r\n", "\u00a0no\u00a0", "\xffmaybe", "\xff no",
	}
	alphabet := []string{"y", "Y", "e", "E", "s", "S", "n", "N", "o", "O", " ", "\n", "\t", ".", "'", "\"", ":",
		"answer:", "The Value Is", "İ", "K", "ß", "Σ", "\u00a0", "é", "\xff"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		inputs = append(inputs, b.String())
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, in := range inputs {
		got, gerr := ParseYesNo(in)
		want, werr := refParseYesNo(in)
		if got != want || errText(gerr) != errText(werr) {
			t.Errorf("ParseYesNo(%q) = %v, %v; reference %v, %v", in, got, gerr, want, werr)
		}
		gv, gerr := ParseValue(in)
		wv, werr := refParseValue(in)
		if gv != wv || errText(gerr) != errText(werr) {
			t.Errorf("ParseValue(%q) = %q, %v; reference %q, %v", in, gv, gerr, wv, werr)
		}
	}
}
