package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prompt"
)

// TestRecogniseReadsWholeHoles pins readings the regex recognisers got
// wrong: each hole runs to the template's next piece, not to the first
// period, question mark, quote or newline inside it, and a rating scale of
// 0, which answerRate cannot draw from, is not a rate task.
func TestRecogniseReadsWholeHoles(t *testing.T) {
	cases := []struct {
		name string
		p    string
		want task
	}{
		{"categories with a period", prompt.Categorize("x", []string{"St. Louis", "Chicago"}),
			task{kind: taskCategorize, a: "x", items: []string{"St. Louis", "Chicago"}}},
		{"criterion with a period", prompt.RateItem("x", "sweetness, e.g. sugar", 5),
			task{kind: taskRate, a: "x", criterion: "sweetness, e.g. sugar", scale: 5}},
		{"predicate with a question mark", prompt.FilterItem("x", "is it vegan? or vegetarian"),
			task{kind: taskFilter, a: "x", predicate: "is it vegan? or vegetarian"}},
		{"count predicate with a period", prompt.CountBatch([]string{"a", "b"}, "is in St. Louis"),
			task{kind: taskCount, items: []string{"a", "b"}, predicate: "is in St. Louis"}},
		{"field with a quote", prompt.Impute("name is x", `a"b`, nil),
			task{kind: taskImpute, record: "name is x", field: `a"b`}},
		{"item with a newline", prompt.ComparePair("a\nb", "c", "size"),
			task{kind: taskCompare, a: "a\nb", b: "c", criterion: "size"}},
		{"scale of 0", prompt.RateItem("x", "size", 0), task{}},
	}
	for _, c := range cases {
		if got := recognise(c.p); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: recognise = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// templatePieces is every piece of every template recognise reads.
func templatePieces() []string {
	var pieces []string
	for _, tm := range []prompt.Template{prompt.ImputeHead, prompt.CoTLine,
		prompt.SortListHead, prompt.CountBatchHead, prompt.GroupRecordsHead, prompt.DiscoverCategoriesHead,
		prompt.NumberedLine, prompt.RecordLine, prompt.CompareBatchHead, prompt.PairLine,
		prompt.RateItemTemplate, prompt.MatchPairTemplate, prompt.FilterItemTemplate,
		prompt.CategorizeTemplate, prompt.VerifyTemplate, prompt.Examples, prompt.ExampleLine,
		prompt.ImputeRecord, prompt.TaskBatchHead, prompt.TaskLine,
		prompt.CompareTemplates[0], prompt.CompareTemplates[1], prompt.CompareTemplates[2],
	} {
		pieces = append(pieces, tm...)
	}
	return pieces
}

// fragments are the strings generated arguments are built from: every
// template piece (so another template's head, "Item B: " and "### Task "),
// the texts the regex recognisers misread, and punctuation, digits with
// leading zeros, quotes, newlines, a header line and list lines numbered
// out of turn.
var fragments = append(templatePieces(),
	"x", "Chocolate Fudge", "Café 🍦", "St. Louis", "sweetness, e.g. sugar", "is it vegan? or vegetarian",
	`a"b`, `\`, "\n", `"`, ".", "?", ", ", ": ", " | ", "007", "0", "12", "Item B:", "### Task 2", "\n### Task 2\n",
	"\n1. ", "\n3. ", "\nR1: ", "\nPair 3. Item A: ")

// roundTripArgs draws template arguments from data: each byte picks a
// fragment or is itself a byte of an argument, so a fuzzer can reach any
// string.
type roundTripArgs struct{ data []byte }

func (a *roundTripArgs) next() int {
	if len(a.data) == 0 {
		return 0
	}
	b := a.data[0]
	a.data = a.data[1:]
	return int(b)
}

func (a *roundTripArgs) str() string {
	var b strings.Builder
	for n := a.next() % 4; n > 0; n-- {
		if k := a.next(); k < 128 {
			b.WriteString(fragments[k%len(fragments)])
		} else {
			b.WriteByte(byte(a.next()))
		}
	}
	return b.String()
}

func (a *roundTripArgs) strs() []string {
	var out []string
	for n := a.next() % 4; n > 0; n-- {
		out = append(out, a.str())
	}
	return out
}

// roundTripCase is one render and the task that holds exactly its
// arguments.
type roundTripCase struct {
	p    string
	want task
	// args are the argument strings, ambiguous is set when two argument
	// lists render the same bytes.
	args      []string
	ambiguous bool
}

func roundTripCases(a *roundTripArgs) []roundTripCase {
	s0, s1, s2, items := a.str(), a.str(), a.str(), a.strs()
	scale, max, variant, cot := 1+a.next(), a.next(), a.next()%prompt.CompareTemplateCount, a.next()%2 == 1
	var pairs []prompt.PairItem
	var pairItems []string
	for i, it := range items {
		pairs = append(pairs, prompt.PairItem{A: it, B: items[len(items)-1-i]})
		pairItems = append(pairItems, it, items[len(items)-1-i])
	}
	var shots []prompt.Example
	var examples []exampleIO
	for i := 0; i+1 < len(items); i += 2 {
		shots = append(shots, prompt.Example{Input: items[i], Output: items[i+1]})
		examples = append(examples, exampleIO{input: items[i], output: items[i+1]})
	}
	with := func(extra ...string) []string { return append(append([]string(nil), items...), extra...) }
	return []roundTripCase{
		{p: prompt.SortList(items, s0), want: task{kind: taskSortList, criterion: s0, items: items}, args: with(s0)},
		{p: prompt.ComparePairVariant(variant, s0, s1, s2, cot),
			want: task{kind: taskCompare, a: s0, b: s1, criterion: s2, variant: variant, cot: cot}, args: []string{s0, s1, s2}},
		{p: prompt.CompareBatch(pairs, s0), want: task{kind: taskCompareBatch, criterion: s0, items: pairItems}, args: with(s0)},
		{p: prompt.RateItem(s0, s1, scale), want: task{kind: taskRate, a: s0, criterion: s1, scale: scale}, args: []string{s0, s1}},
		{p: prompt.MatchPair(s0, s1), want: task{kind: taskMatch, a: s0, b: s1}, args: []string{s0, s1}},
		{p: prompt.Impute(s0, s1, shots), want: task{kind: taskImpute, record: s0, field: s1, examples: examples}, args: with(s0, s1)},
		{p: prompt.FilterItem(s0, s1), want: task{kind: taskFilter, a: s0, predicate: s1}, args: []string{s0, s1}},
		{p: prompt.CountBatch(items, s0), want: task{kind: taskCount, predicate: s0, items: items}, args: with(s0)},
		{p: prompt.GroupRecords(items), want: task{kind: taskGroup, items: items}, args: items},
		{p: prompt.Verify(s0, s1), want: task{kind: taskVerify, question: s0, answer: s1}, args: []string{s0, s1}},
		// A list of one empty category renders as the empty list.
		{p: prompt.Categorize(s0, items), want: task{kind: taskCategorize, a: s0, items: items}, args: with(s0),
			ambiguous: len(items) == 1 && items[0] == ""},
		{p: prompt.DiscoverCategories(items, max), want: task{kind: taskDiscover, max: max, items: items}, args: items},
	}
}

// rerender renders a task the way the template it was read from would.
func rerender(t task) string {
	switch t.kind {
	case taskSortList:
		return prompt.SortList(t.items, t.criterion)
	case taskCompare:
		return prompt.ComparePairVariant(t.variant, t.a, t.b, t.criterion, t.cot)
	case taskCompareBatch:
		var pairs []prompt.PairItem
		for i := 0; i+1 < len(t.items); i += 2 {
			pairs = append(pairs, prompt.PairItem{A: t.items[i], B: t.items[i+1]})
		}
		return prompt.CompareBatch(pairs, t.criterion)
	case taskRate:
		return prompt.RateItem(t.a, t.criterion, t.scale)
	case taskMatch:
		return prompt.MatchPair(t.a, t.b)
	case taskImpute:
		var shots []prompt.Example
		for _, ex := range t.examples {
			shots = append(shots, prompt.Example{Input: ex.input, Output: ex.output})
		}
		return prompt.Impute(t.record, t.field, shots)
	case taskFilter:
		return prompt.FilterItem(t.a, t.predicate)
	case taskCount:
		return prompt.CountBatch(t.items, t.predicate)
	case taskGroup:
		return prompt.GroupRecords(t.items)
	case taskVerify:
		return prompt.Verify(t.question, t.answer)
	case taskCategorize:
		return prompt.Categorize(t.a, t.items)
	case taskDiscover:
		return prompt.DiscoverCategories(t.items, t.max)
	}
	return ""
}

// holdsPiece reports whether a piece occurs in s or begins inside it, so
// that cutting s + piece at the piece's first occurrence could end early.
func holdsPiece(s string, pieces []string) bool {
	for _, p := range pieces {
		if p != "" && strings.Contains(s+p[:len(p)-1], p) {
			return true
		}
	}
	return false
}

// normal makes empty slices nil, so readings compare by content.
func normal(t task) task {
	if len(t.items) == 0 {
		t.items = nil
	}
	if len(t.examples) == 0 {
		t.examples = nil
	}
	return t
}

// checkRoundTrip states what reading a render keeps: if recognise accepts
// it, the reading re-renders to the same bytes; if no argument holds a
// template piece, the reading is exactly the arguments and the kind; no
// other kind accepts it. The same holds for a batch envelope of the
// renders and ReadTaskBatch.
func checkRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	pieces := append(templatePieces(), ", ")
	cases := roundTripCases(&roundTripArgs{data: data})
	var subs []string
	for _, c := range cases {
		subs = append(subs, c.p)
		got := recognise(c.p)
		exact := !c.ambiguous
		for _, arg := range c.args {
			exact = exact && !holdsPiece(arg, pieces)
		}
		switch {
		case got.kind == taskUnknown && exact:
			t.Errorf("%q: declined, want %+v", c.p, c.want)
		case got.kind == taskUnknown:
		case got.kind != c.want.kind:
			t.Errorf("%q: read as kind %d, want %d", c.p, got.kind, c.want.kind)
		case rerender(got) != c.p:
			t.Errorf("%q: reading %+v re-renders as %q", c.p, got, rerender(got))
		case exact && !reflect.DeepEqual(normal(got), normal(c.want)):
			t.Errorf("%q: read %+v, want %+v", c.p, got, c.want)
		}
	}
	subs = append(subs, cases[0].want.criterion) // any text, perhaps with no final newline
	env := prompt.TaskBatch(subs)
	if k := recognise(env).kind; k != taskUnknown {
		t.Errorf("envelope read as kind %d", k)
	}
	read, ok := prompt.ReadTaskBatch(env)
	embeddable := true
	for _, s := range subs {
		embeddable = embeddable && prompt.CanEmbed(s)
	}
	switch {
	case !ok && embeddable:
		t.Errorf("envelope of embeddable prompts declined: %q", env)
	case ok && prompt.TaskBatch(read) != env:
		t.Errorf("envelope reading %q re-renders differently", read)
	case embeddable && !reflect.DeepEqual(read, subs):
		t.Errorf("envelope read %q, want %q", read, subs)
	}
}

func TestTemplateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, rng.Intn(48))
		rng.Read(data)
		checkRoundTrip(t, data)
	}
}

func FuzzTemplateRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x10\x20\x30\x02\x40\x41\x03\x05\x06\x07"))
	f.Add([]byte{1, 200, '\n', 2, 3, 4, 3, 1, 90, 1, 91, 1, 92})
	f.Fuzz(func(t *testing.T, data []byte) { checkRoundTrip(t, data) })
}
