package sim

import (
	"strconv"
	"strings"

	"repro/internal/prompt"
)

// taskKind enumerates the unit tasks the oracle understands. The
// recognisers are keyed to the toolkit's prompt templates
// (internal/prompt) the way a real model is keyed to instructions.
type taskKind int

const (
	taskUnknown taskKind = iota
	taskSortList
	taskCompare
	taskCompareBatch
	taskRate
	taskMatch
	taskImpute
	taskFilter
	taskCount
	taskGroup
	taskVerify
	taskCategorize
	taskDiscover
)

// task is the structured reading of one prompt.
type task struct {
	kind      taskKind
	criterion string   // sort/compare/rate criterion text
	items     []string // list items / records
	a, b      string   // pair members
	scale     int      // rating scale
	variant   int      // comparison template variant
	cot       bool     // chain-of-thought instruction present
	field     string   // imputation target attribute
	record    string   // serialized record
	examples  []exampleIO
	predicate string // filter/count predicate text
	question  string // verify: original question
	answer    string // verify: proposed answer
	max       int    // discover: category cap
}

type exampleIO struct{ input, output string }

// recognise reads a prompt with the toolkit's templates. No template's first
// piece begins another's, so a prompt that embeds another (a verify question
// quoting a rate prompt) is read by its outer one, and must be read to its
// last byte; any other prompt is taskUnknown.
func recognise(p string) task {
	var t task
	var n string
	for v, tm := range prompt.CompareTemplates {
		holes := []*string{&t.criterion, &t.a, &t.b}
		if v == 0 {
			holes = []*string{&t.a, &t.b, &t.criterion}
		}
		if rest, ok := tm.Read(p, holes...); ok && (rest == "" || whole(prompt.CoTLine, rest)) {
			t.kind, t.variant, t.cot = taskCompare, v, rest != ""
			return t
		}
	}
	if rest, ok := prompt.SortListHead.Read(p, &n, &t.criterion); ok && t.list(prompt.NumberedLine, rest, n) {
		t.kind = taskSortList
	} else if rest, ok := prompt.CompareBatchHead.Read(p, &n, &t.criterion); ok && t.list(prompt.PairLine, rest, n) {
		t.kind = taskCompareBatch
	} else if rest, ok := prompt.CountBatchHead.Read(p, &n, &t.predicate); ok && t.list(prompt.NumberedLine, rest, n) {
		t.kind = taskCount
	} else if rest, ok := prompt.GroupRecordsHead.Read(p, &n); ok && t.list(prompt.RecordLine, rest, n) {
		t.kind = taskGroup
	} else if rest, ok := prompt.DiscoverCategoriesHead.Read(p, &n); ok {
		var okMax bool
		t.max, okMax = prompt.ReadCount(n)
		if t.items, ok = prompt.NumberedLine.ReadList(rest); ok && okMax {
			t.kind = taskDiscover
		}
	} else if whole(prompt.RateItemTemplate, p, &n, &t.criterion, &t.a) {
		if t.scale, _ = prompt.ReadCount(n); t.scale > 0 { // answerRate draws rng.Intn(scale)
			t.kind = taskRate
		}
	} else if whole(prompt.MatchPairTemplate, p, &t.a, &t.b) {
		t.kind = taskMatch
	} else if whole(prompt.FilterItemTemplate, p, &t.predicate, &t.a) {
		t.kind = taskFilter
	} else if whole(prompt.CategorizeTemplate, p, &n, &t.a) {
		t.kind, t.items = taskCategorize, prompt.ReadCategoryList(n)
	} else if rest, ok := prompt.ImputeHead.Read(p); ok && t.impute(rest) {
		t.kind = taskImpute
	} else if v := prompt.VerifyTemplate; strings.HasPrefix(p, v[0]) {
		body, ok := strings.CutSuffix(p[len(v[0]):], v[2])
		if i := strings.LastIndex(body, v[1]); ok && i >= 0 {
			t = task{kind: taskVerify, question: body[:i], answer: body[i+len(v[1]):]}
		}
	}
	if t.kind == taskUnknown {
		return task{}
	}
	return t
}

// whole reports whether tm reads all of p.
func whole(tm prompt.Template, p string, holes ...*string) bool {
	rest, ok := tm.Read(p, holes...)
	return ok && rest == ""
}

// list reads rest as exactly count numbered lines into t.items.
func (t *task) list(line prompt.Template, rest, count string) bool {
	n, okN := prompt.ReadCount(count)
	items, ok := line.ReadList(rest)
	t.items = items
	return ok && okN && len(items) == n*(len(line)-2)
}

// impute reads what follows an Impute prompt's head into t: the examples
// block, if any, then the record and its quoted field.
func (t *task) impute(rest string) bool {
	ok := true
	if r, shots := strings.CutPrefix(rest, prompt.Examples[0]); shots {
		for rest = r; ok && !strings.HasPrefix(rest, prompt.Examples[1]); {
			var ex exampleIO
			rest, ok = prompt.ExampleLine.Read(rest, &ex.input, &ex.output)
			t.examples = append(t.examples, ex)
		}
		rest = strings.TrimPrefix(rest, prompt.Examples[1])
	}
	var field string
	var err error
	ok = ok && whole(prompt.ImputeRecord, rest, &t.record, &field)
	t.field, err = strconv.Unquote(field)
	return ok && err == nil
}
