package prompt

import (
	"slices"
	"strconv"
	"strings"
)

// A Template is the fixed text of one prompt form: its literal pieces
// around its holes, in text order. Each text is written here once: the
// renderers fill it and Read takes the holes back out. Callers must not
// modify the templates below.
type Template []string

// The templates of every prompt form. A list is a head, then one line per
// item whose first hole is its number from 1 (a TaskLine is followed by its
// prompt). Impute is ImputeHead, Examples if it has any, then ImputeRecord,
// whose field is written by strconv.Quote. A Verify question may itself be a
// Verify prompt, so it runs to the last "\nIt answered: ". Counts are
// written by strconv.Itoa.
var (
	SortListHead           = Template{"Sort the following ", " items by ", ", from most to least.\nReturn only the sorted items, one per line, numbered.\n\nItems:\n"}
	CountBatchHead         = Template{"Estimate what percentage of the following ", " items satisfy the condition: ", ".\nAnswer with a single percentage.\n\nItems:\n"}
	GroupRecordsHead       = Template{"Group the following ", " records into sets that refer to the same real-world entity.\nOutput one line per group in the form \"group: R1, R4\". Every record must appear in exactly one group.\n\nRecords:\n"}
	DiscoverCategoriesHead = Template{"Propose at most ", " category names that partition the following items by topic.\nReturn only the category names, one per line.\n\nItems:\n"}
	CompareBatchHead       = Template{"For each of the following ", " pairs, decide which item ranks higher by ", ".\nAnswer with one line per pair in the form \"1: A\" or \"1: B\".\n\nPairs:\n"}
	NumberedLine           = Template{"", ". ", "\n"}
	RecordLine             = Template{"R", ": ", "\n"}
	PairLine               = Template{"Pair ", ". Item A: ", " | Item B: ", "\n"}
	RateItemTemplate       = Template{"On a scale of 1 (least) to ", " (most), rate the following item by ", ".\nItem: ", "\nAnswer with a single number.\n"}
	MatchPairTemplate      = Template{"Are Citation A and Citation B the same? Yes or No?\nCitation A is ", "\nCitation B is ", "\nAre Citation A and Citation B the same? Start your response with Yes or No.\n"}
	FilterItemTemplate     = Template{"Does the following item satisfy the condition: ", "?\nItem: ", "\nAnswer Yes or No.\n"}
	CategorizeTemplate     = Template{"Assign the following item to exactly one of these categories: ", ".\nItem: ", "\nAnswer with only the category name.\n"}
	ImputeRecord           = Template{"Record: ", ".\nWhat is the value of the missing attribute ", "? Answer with only the value.\n"}
	Examples               = Template{"Here are some examples:\n", "\n"}
	ExampleLine            = Template{"Input: ", "\nOutput: ", "\n"}
	TaskBatchHead          = Template{"Below are ", " independent tasks. Answer every task on its own.\nBefore each answer, write a line of the form \"### Task i\", in order, starting at 1. Do not skip any task.\n\n"}
	TaskLine               = Template{"### Task ", "\n"}
	ImputeHead             = Template{"Fill in the missing attribute of a record.\n"}
	CoTLine                = Template{"Think step by step about your reasoning, then finish with a line of the form \"Answer: A\" or \"Answer: B\".\n"}
	VerifyTemplate         = Template{"A previous assistant was asked:\n", "\nIt answered: ", "\nIs that answer correct? Answer Yes or No.\n"}

	// CompareTemplates are the phrasings of the comparison task. The first
	// takes its holes in the order item A, item B, criterion; the others
	// criterion, item A, item B. CoTLine follows any of them when the
	// prompt asks for chain-of-thought.
	CompareTemplates = [CompareTemplateCount]Template{
		{"Consider the following two items.\nItem A: ", "\nItem B: ", "\nWhich item ranks higher by ", "? Answer with exactly one letter, A or B.\n"},
		{"You are ranking items by ", ".\nOption A: ", "\nOption B: ", "\nWhich option ranks higher? Reply with A or B only.\n"},
		{"Here are two candidates to judge by ", ".\nCandidate A is: ", "\nCandidate B is: ", "\nName the stronger candidate (A or B).\n"},
	}
)

// Append appends t to dst with its holes filled by holes, in text order,
// growing dst at most once.
func (t Template) Append(dst []byte, holes ...string) []byte {
	n := len(t[0])
	for i, piece := range t[1:] {
		n += len(holes[i]) + len(piece)
	}
	dst = append(slices.Grow(dst, n), t[0]...)
	for i, piece := range t[1:] {
		dst = append(append(dst, holes[i]...), piece...)
	}
	return dst
}

// AppendCount appends t with its first hole the count n and its other
// holes filled by holes.
func (t Template) AppendCount(dst []byte, n int, holes ...string) []byte {
	dst = strconv.AppendInt(append(dst, t[0]...), int64(n), 10)
	return t[1:].Append(dst, holes...)
}

// Read takes the holes of a render of t out of p, in text order, and returns
// the text after t's last piece. p must begin with t's first piece, and each
// hole runs to the first occurrence of the next piece, so it reads back
// exactly unless its text holds that piece; else ok is false.
func (t Template) Read(p string, holes ...*string) (rest string, ok bool) {
	rest, ok = strings.CutPrefix(p, t[0])
	for i := 1; ok && i < len(t); i++ {
		*holes[i-1], rest, ok = strings.Cut(rest, t[i])
	}
	return rest, ok
}

// ReadList reads the lines of a list up to the end of rest, each a render
// of t whose first hole is the line's number, and returns every line's
// other holes in text order.
func (t Template) ReadList(rest string) ([]string, bool) {
	dst := make([]string, 0, strings.Count(rest, t[len(t)-1])*(len(t)-2))
	var h [3]string
	holes := [3]*string{&h[0], &h[1], &h[2]}
	for n, ok := 1, true; rest != ""; n++ {
		rest, ok = t.Read(rest, holes[:len(t)-1]...)
		if m, isNum := ReadCount(h[0]); !ok || !isNum || m != n {
			return dst, false
		}
		dst = append(dst, h[1:len(t)-1]...)
	}
	return dst, true
}

// ReadCount reads a count hole, a non-negative number as strconv.Itoa writes
// it. It calls strconv.Atoi only on digits: Atoi's error allocates.
func ReadCount(s string) (int, bool) {
	if s == "" || len(s) > 18 || s[0] == '0' && len(s) > 1 || strings.Trim(s, "0123456789") != "" {
		return 0, false
	}
	n, _ := strconv.Atoi(s)
	return n, true
}
