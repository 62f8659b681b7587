package sim

import (
	"regexp"
	"strconv"
	"strings"
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

var (
	reSortHead    = regexp.MustCompile(`(?s)^Sort the following \d+ items by (.+?), from most to least\.`)
	reCompareA    = regexp.MustCompile(`(?m)^Item A: (.*)$`)
	reCompareB    = regexp.MustCompile(`(?m)^Item B: (.*)$`)
	reCompareCrit = regexp.MustCompile(`Which item ranks higher by (.+?)\? Answer`)
	reCompareV1   = regexp.MustCompile(`(?s)^You are ranking items by (.+?)\.\nOption A: (.*?)\nOption B: (.*?)\nWhich option ranks higher\?`)
	reCompareV2   = regexp.MustCompile(`(?s)^Here are two candidates to judge by (.+?)\.\nCandidate A is: (.*?)\nCandidate B is: (.*?)\nName the stronger candidate`)
	reBatchHead   = regexp.MustCompile(`^For each of the following \d+ pairs, decide which item ranks higher by (.+?)\.`)
	reBatchPair   = regexp.MustCompile(`(?m)^Pair \d+\. Item A: (.*) \| Item B: (.*)$`)
	reRateHead    = regexp.MustCompile(`^On a scale of 1 \(least\) to (\d+) \(most\), rate the following item by (.+?)\.`)
	reRateItem    = regexp.MustCompile(`(?m)^Item: (.*)$`)
	reMatchA      = regexp.MustCompile(`(?m)^Citation A is (.*)$`)
	reMatchB      = regexp.MustCompile(`(?m)^Citation B is (.*)$`)
	reImputeRec   = regexp.MustCompile(`(?m)^Record: (.*)\.$`)
	reImputeField = regexp.MustCompile(`missing attribute "([^"]+)"`)
	reExample     = regexp.MustCompile(`(?m)^Input: (.*)\nOutput: (.*)$`)
	reFilterHead  = regexp.MustCompile(`(?s)^Does the following item satisfy the condition: (.+?)\?`)
	reCountHead   = regexp.MustCompile(`(?s)^Estimate what percentage of the following \d+ items satisfy the condition: (.+?)\.`)
	reGroupHead   = regexp.MustCompile(`^Group the following \d+ records`)
	reGroupRec    = regexp.MustCompile(`(?m)^R(\d+): (.*)$`)
	reVerifyHead  = regexp.MustCompile(`(?s)^A previous assistant was asked:\n(.*)\nIt answered: (.*)\nIs that answer correct\?`)
	reCatHead     = regexp.MustCompile(`^Assign the following item to exactly one of these categories: (.+?)\.`)
	reDiscover    = regexp.MustCompile(`^Propose at most (\d+) category names`)
	reNumbered    = regexp.MustCompile(`(?m)^\d+\. (.*)$`)
)

var (
	reEnvelopeHead = regexp.MustCompile(`^Below are \d+ independent tasks\.`)
	reEnvelopeTask = regexp.MustCompile(`(?m)^### Task \d+[ \t]*$`)
)

// splitEnvelope returns the sub-prompts embedded in a multi-task batch
// envelope (internal/prompt.TaskBatch) in order, or ok=false for any
// other prompt. Sub-prompts are recovered byte-for-byte — each runs from
// the character after its header line to the start of the next header —
// so the oracle can answer them exactly as it would standalone.
func splitEnvelope(prompt string) (subs []string, ok bool) {
	if !reEnvelopeHead.MatchString(prompt) {
		return nil, false
	}
	locs := reEnvelopeTask.FindAllStringIndex(prompt, -1)
	if len(locs) == 0 {
		return nil, false
	}
	for i, loc := range locs {
		start := loc[1]
		if start < len(prompt) && prompt[start] == '\n' {
			start++
		}
		end := len(prompt)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		subs = append(subs, prompt[start:end])
	}
	return subs, true
}

// recognise reads the prompt and extracts the structured task. Prompts
// produced by foreign templates fall through to taskUnknown. The heads are
// tried in a fixed order and the first that matches decides the task, so a
// prompt that embeds another (a verify question quoting a rate prompt) is
// read as whichever head comes first.
func recognise(prompt string) task {
	if m := reSortHead.FindStringSubmatch(prompt); m != nil {
		return task{
			kind:      taskSortList,
			criterion: m[1],
			items:     extractNumbered(prompt),
		}
	}
	if m := reBatchHead.FindStringSubmatch(prompt); m != nil {
		t := task{kind: taskCompareBatch, criterion: m[1]}
		for _, pm := range reBatchPair.FindAllStringSubmatch(prompt, -1) {
			t.items = append(t.items, pm[1], pm[2])
		}
		if len(t.items) == 0 {
			return task{}
		}
		return t
	}
	if strings.HasPrefix(prompt, "Consider the following two items.") {
		a := reCompareA.FindStringSubmatch(prompt)
		b := reCompareB.FindStringSubmatch(prompt)
		c := reCompareCrit.FindStringSubmatch(prompt)
		if a == nil || b == nil || c == nil {
			return task{}
		}
		return task{kind: taskCompare, a: a[1], b: b[1], criterion: c[1], cot: hasCoT(prompt)}
	}
	if m := reCompareV1.FindStringSubmatch(prompt); m != nil {
		return task{kind: taskCompare, criterion: m[1], a: m[2], b: m[3], variant: 1, cot: hasCoT(prompt)}
	}
	if m := reCompareV2.FindStringSubmatch(prompt); m != nil {
		return task{kind: taskCompare, criterion: m[1], a: m[2], b: m[3], variant: 2, cot: hasCoT(prompt)}
	}
	if m := reRateHead.FindStringSubmatch(prompt); m != nil {
		it := reRateItem.FindStringSubmatch(prompt)
		if it == nil {
			return task{}
		}
		scale, _ := strconv.Atoi(m[1])
		return task{kind: taskRate, scale: scale, criterion: m[2], a: it[1]}
	}
	if strings.HasPrefix(prompt, "Are Citation A and Citation B the same?") {
		a := reMatchA.FindStringSubmatch(prompt)
		b := reMatchB.FindStringSubmatch(prompt)
		if a == nil || b == nil {
			return task{}
		}
		return task{kind: taskMatch, a: a[1], b: b[1]}
	}
	if strings.HasPrefix(prompt, "Fill in the missing attribute") {
		rec := reImputeRec.FindStringSubmatch(prompt)
		field := reImputeField.FindStringSubmatch(prompt)
		if rec == nil || field == nil {
			return task{}
		}
		t := task{kind: taskImpute, record: rec[1], field: field[1]}
		for _, ex := range reExample.FindAllStringSubmatch(prompt, -1) {
			t.examples = append(t.examples, exampleIO{input: ex[1], output: ex[2]})
		}
		return t
	}
	if m := reFilterHead.FindStringSubmatch(prompt); m != nil {
		it := reRateItem.FindStringSubmatch(prompt) // same "Item: " line
		if it == nil {
			return task{}
		}
		return task{kind: taskFilter, predicate: m[1], a: it[1]}
	}
	if m := reCountHead.FindStringSubmatch(prompt); m != nil {
		return task{kind: taskCount, predicate: m[1], items: extractNumbered(prompt)}
	}
	if reGroupHead.MatchString(prompt) { // no capture to read
		var items []string
		for _, rm := range reGroupRec.FindAllStringSubmatch(prompt, -1) {
			items = append(items, rm[2])
		}
		return task{kind: taskGroup, items: items}
	}
	if m := reVerifyHead.FindStringSubmatch(prompt); m != nil {
		return task{kind: taskVerify, question: m[1], answer: strings.TrimSpace(m[2])}
	}
	if m := reCatHead.FindStringSubmatch(prompt); m != nil {
		it := reRateItem.FindStringSubmatch(prompt)
		if it == nil {
			return task{}
		}
		return task{
			kind:  taskCategorize,
			items: splitCategories(m[1]),
			a:     it[1],
		}
	}
	if m := reDiscover.FindStringSubmatch(prompt); m != nil {
		max, _ := strconv.Atoi(m[1])
		return task{kind: taskDiscover, max: max, items: extractNumbered(prompt)}
	}
	return task{}
}

func hasCoT(prompt string) bool {
	return strings.Contains(prompt, "Think step by step")
}

func extractNumbered(prompt string) []string {
	var items []string
	for _, m := range reNumbered.FindAllStringSubmatch(prompt, -1) {
		items = append(items, m[1])
	}
	return items
}

func splitCategories(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
