package prompt

import (
	"errors"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestSortListTemplate(t *testing.T) {
	p := SortList([]string{"vanilla", "chocolate"}, "how chocolatey they are")
	for _, want := range []string{"Sort the following 2 items", "1. vanilla", "2. chocolate", "how chocolatey"} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q:\n%s", want, p)
		}
	}
}

func TestComparePairTemplate(t *testing.T) {
	p := ComparePair("x", "y", "alphabetical order")
	for _, want := range []string{"Item A: x", "Item B: y", "A or B"} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}

func TestMatchPairUsesPaperPhrasing(t *testing.T) {
	p := MatchPair("cit a text", "cit b text")
	if !strings.Contains(p, "Are Citation A and Citation B the same?") {
		t.Error("prompt should use the paper's exact question")
	}
	if !strings.Contains(p, "Start your response with Yes or No") {
		t.Error("prompt should pin the answer format")
	}
}

func TestImputeWithExamples(t *testing.T) {
	p := Impute("name is x; addr is y", "city", []Example{{Input: "name is a", Output: "atlanta"}})
	for _, want := range []string{"Here are some examples:", "Input: name is a", "Output: atlanta", `missing attribute "city"`} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q:\n%s", want, p)
		}
	}
	if strings.Contains(Impute("r", "f", nil), "examples") {
		t.Error("zero-shot prompt should not mention examples")
	}
}

func TestOtherTemplatesRender(t *testing.T) {
	if p := RateItem("x", "how chocolatey", 7); !strings.Contains(p, "1 (least) to 7 (most)") {
		t.Errorf("RateItem: %s", p)
	}
	if p := FilterItem("x", "is positive"); !strings.Contains(p, "is positive") {
		t.Errorf("FilterItem: %s", p)
	}
	if p := CountBatch([]string{"a", "b"}, "is even"); !strings.Contains(p, "percentage") {
		t.Errorf("CountBatch: %s", p)
	}
	if p := GroupRecords([]string{"r one", "r two"}); !strings.Contains(p, "R2: r two") {
		t.Errorf("GroupRecords: %s", p)
	}
	if p := Verify("q?", "42"); !strings.Contains(p, "It answered: 42") {
		t.Errorf("Verify: %s", p)
	}
	if p := Categorize("x", []string{"a", "b"}); !strings.Contains(p, "a, b") {
		t.Errorf("Categorize: %s", p)
	}
	if p := DiscoverCategories([]string{"x"}, 5); !strings.Contains(p, "at most 5") {
		t.Errorf("DiscoverCategories: %s", p)
	}
}

func TestParseList(t *testing.T) {
	resp := "Here are the sorted items:\n1. chocolate fudge\n2) vanilla\nplain line\n\n"
	got := ParseList(resp)
	want := []string{"chocolate fudge", "vanilla", "plain line"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseList = %v, want %v", got, want)
	}
	if got := ParseList(""); len(got) != 0 {
		t.Fatalf("empty response = %v", got)
	}
}

func TestParseChoice(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"A", "A"},
		{"B.", "B"},
		{"a", "A"},
		{"Item B is more chocolatey", "B"},
		{"I choose A because it is darker.", "A"},
		{"The answer is b", "B"},
		{"First A seems right, but actually B", "B"}, // last standalone letter
	}
	for _, c := range cases {
		got, err := ParseChoice(c.in)
		if err != nil {
			t.Errorf("ParseChoice(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseChoice(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := ParseChoice("neither option works"); !errors.Is(err, ErrUnparseable) {
		t.Errorf("want ErrUnparseable, got %v", err)
	}
	if _, err := ParseChoice("  "); !errors.Is(err, ErrUnparseable) {
		t.Errorf("want ErrUnparseable on empty, got %v", err)
	}
}

func TestParseYesNo(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"Yes", true},
		{"yes, they are the same.", true},
		{"No.", false},
		{"NO they differ", false},
		{"I think the answer is yes", true},
		{"It is clear: no", false},
		// Paper's chain-of-thought failure: "not the same...They are the
		// same" — leading "no"-bearing analysis; the first token wins.
		{"They are not the same... wait, they are the same.", false},
	}
	for _, c := range cases {
		got, err := ParseYesNo(c.in)
		if err != nil {
			t.Errorf("ParseYesNo(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseYesNo(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseYesNo("maybe"); !errors.Is(err, ErrUnparseable) {
		t.Errorf("want ErrUnparseable, got %v", err)
	}
}

func TestParseYesNoFirstOccurrenceWins(t *testing.T) {
	got, err := ParseYesNo("Clearly yes, not no.")
	if err != nil || got != true {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestParseRating(t *testing.T) {
	got, err := ParseRating("I would say 5 out of 7", 7)
	if err != nil || got != 5 {
		t.Fatalf("got %d, %v", got, err)
	}
	got, _ = ParseRating("42", 7)
	if got != 7 {
		t.Fatalf("clamp high = %d", got)
	}
	got, _ = ParseRating("-3", 7)
	if got != 1 {
		t.Fatalf("clamp low = %d", got)
	}
	if _, err := ParseRating("no number here", 7); !errors.Is(err, ErrUnparseable) {
		t.Errorf("want ErrUnparseable, got %v", err)
	}
}

// TestFirstIntMatchesRegexp checks the byte scan behind ParseRating and
// ParsePercent against the regexp it replaced, -?\d+, on strings built
// from pieces that sit at its edges: lone and doubled '-', digits at
// either end, non-ASCII digits (which \d does not match) and digit runs
// too long for strconv.Atoi.
func TestFirstIntMatchesRegexp(t *testing.T) {
	re := regexp.MustCompile(`-?\d+`)
	pieces := []string{"-", "--", "0", "7", "42", " ", "a", "٣", "３", "x-", "-３",
		"99999999999999999999", "\n", "\xff", "."}
	build := func(picks []uint8) string {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(pieces[int(p)%len(pieces)])
		}
		return b.String()
	}
	f := func(picks []uint8) bool {
		s := build(picks)
		if got, want := firstInt(s), re.FindString(s); got != want {
			t.Logf("firstInt(%q) = %q, regexp finds %q", s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"", "-", "--", "--5", "5-", "-5", "a-b-7c", "٣", "３ 2", "rate: -0012 now", "x9"} {
		if got, want := firstInt(s), re.FindString(s); got != want {
			t.Errorf("firstInt(%q) = %q, regexp finds %q", s, got, want)
		}
	}
	for _, s := range []string{"99999999999999999999", "say -99999999999999999999 then 3"} {
		if _, err := ParseRating(s, 7); !errors.Is(err, ErrUnparseable) || !strings.Contains(err.Error(), "bad rating") {
			t.Errorf("ParseRating(%q): want a bad rating error, got %v", s, err)
		}
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"new york", "new york"},
		{"Answer: Sony", "Sony"},
		{"The value is Garmin.", "Garmin"},
		{"\n\n  atlanta  \n", "atlanta"},
		{`"chicago"`, "chicago"},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := ParseValue("\n  \n"); !errors.Is(err, ErrUnparseable) {
		t.Errorf("want ErrUnparseable, got %v", err)
	}
}

func TestParsePercent(t *testing.T) {
	got, err := ParsePercent("Roughly 40% of the items")
	if err != nil || got != 0.40 {
		t.Fatalf("got %f, %v", got, err)
	}
	got, err = ParsePercent("about 25")
	if err != nil || got != 0.25 {
		t.Fatalf("bare number: got %f, %v", got, err)
	}
	if got, _ := ParsePercent("150%"); got != 1 {
		t.Fatalf("clamp = %f", got)
	}
	if _, err := ParsePercent("none"); !errors.Is(err, ErrUnparseable) {
		t.Errorf("want ErrUnparseable, got %v", err)
	}
}

func TestParseGroups(t *testing.T) {
	resp := "group 1: R1, R3\ngroup 2: R2\nnoise line"
	got := ParseGroups(resp, 4)
	want := [][]int{{0, 2}, {1}, {3}} // R4 unmentioned -> singleton
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseGroups = %v, want %v", got, want)
	}
	// Duplicate and out-of-range references are dropped.
	got = ParseGroups("group: R1, R1, R9", 2)
	want = [][]int{{0}, {1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseGroups junk = %v, want %v", got, want)
	}
}

func TestParseGroupsEverythingCovered(t *testing.T) {
	for total := 1; total <= 6; total++ {
		groups := ParseGroups("group: R1, R2", total)
		covered := map[int]bool{}
		for _, g := range groups {
			for _, i := range g {
				if covered[i] {
					t.Fatalf("index %d covered twice", i)
				}
				covered[i] = true
			}
		}
		if len(covered) != total {
			t.Fatalf("total=%d covered=%d", total, len(covered))
		}
	}
}

func TestCompareBatchTemplate(t *testing.T) {
	p := CompareBatch([]PairItem{{A: "x", B: "y"}, {A: "u", B: "v"}}, "numeric value")
	for _, want := range []string{"2 pairs", "Pair 1. Item A: x | Item B: y", "Pair 2. Item A: u | Item B: v"} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q:\n%s", want, p)
		}
	}
}

func TestParseChoices(t *testing.T) {
	resp := "1: A\n2: B\nPair 3: A\n4. b\nnoise"
	got, err := ParseChoices(resp, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{0: "A", 1: "B", 2: "A", 3: "B"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseChoices = %v, want %v", got, want)
	}
	// Skipped pairs are simply absent.
	got, err = ParseChoices("2: A", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[1] != "A" {
		t.Fatalf("sparse = %v", got)
	}
	// Out-of-range indices dropped; all-junk is an error.
	if _, err := ParseChoices("9: A", 3); !errors.Is(err, ErrUnparseable) {
		t.Fatalf("out-of-range only should be unparseable, got %v", err)
	}
	if _, err := ParseChoices("nothing here", 3); !errors.Is(err, ErrUnparseable) {
		t.Fatalf("junk should be unparseable, got %v", err)
	}
}

func TestComparePairVariants(t *testing.T) {
	seen := map[string]bool{}
	for v := 0; v < CompareTemplateCount; v++ {
		p := ComparePairVariant(v, "x", "y", "numeric value", false)
		if seen[p] {
			t.Fatalf("variant %d duplicates another phrasing", v)
		}
		seen[p] = true
		for _, want := range []string{"x", "y", "numeric value"} {
			if !strings.Contains(p, want) {
				t.Errorf("variant %d missing %q", v, want)
			}
		}
		if strings.Contains(p, "Think step by step") {
			t.Errorf("variant %d has CoT without asking", v)
		}
	}
	// CoT suffix appears when requested; variant index wraps.
	p := ComparePairVariant(CompareTemplateCount+1, "x", "y", "c", true)
	if !strings.Contains(p, "Think step by step") {
		t.Error("CoT suffix missing")
	}
	if p2 := ComparePairVariant(1, "x", "y", "c", true); p != p2 {
		t.Error("variant index should wrap modulo the count")
	}
	if ComparePair("x", "y", "c") != ComparePairVariant(0, "x", "y", "c", false) {
		t.Error("ComparePair must be variant 0")
	}
}

func TestParseChoiceCoTResponses(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"Let me think step by step. At first glance the stronger one seems to be B. However, weighing again. Comparing directly, A holds the edge.\nAnswer: A\n", "A"},
		{"Reasoning about a few things here... the answer is B", "B"},
		{"Candidate B is clearly stronger given a number of factors.", "B"},
	}
	for _, c := range cases {
		got, err := ParseChoice(c.in)
		if err != nil {
			t.Errorf("ParseChoice(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseChoice(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// A long reasoning text with only lowercase articles must NOT parse.
	if _, err := ParseChoice("this is a long piece of text with a lot of words and no choice at all"); err == nil {
		t.Error("articles must not be mistaken for answers")
	}
}
