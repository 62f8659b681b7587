package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompt"
)

func TestRecogniseSort(t *testing.T) {
	p := prompt.SortList([]string{"alpha", "beta"}, "how chocolatey they are")
	task := recognise(p)
	if task.kind != taskSortList {
		t.Fatalf("kind = %v", task.kind)
	}
	if task.criterion != "how chocolatey they are" {
		t.Fatalf("criterion = %q", task.criterion)
	}
	if !reflect.DeepEqual(task.items, []string{"alpha", "beta"}) {
		t.Fatalf("items = %v", task.items)
	}
}

func TestRecogniseCompare(t *testing.T) {
	p := prompt.ComparePair("left item", "right item", "numeric value")
	task := recognise(p)
	if task.kind != taskCompare {
		t.Fatalf("kind = %v", task.kind)
	}
	if task.a != "left item" || task.b != "right item" {
		t.Fatalf("pair = %q / %q", task.a, task.b)
	}
	if task.criterion != "numeric value" {
		t.Fatalf("criterion = %q", task.criterion)
	}
}

func TestRecogniseCompareBatch(t *testing.T) {
	p := prompt.CompareBatch([]prompt.PairItem{{A: "x", B: "y"}, {A: "u", B: "v"}}, "numeric value")
	task := recognise(p)
	if task.kind != taskCompareBatch {
		t.Fatalf("kind = %v", task.kind)
	}
	if !reflect.DeepEqual(task.items, []string{"x", "y", "u", "v"}) {
		t.Fatalf("items = %v", task.items)
	}
}

func TestRecogniseRate(t *testing.T) {
	p := prompt.RateItem("the item", "how chocolatey they are", 9)
	task := recognise(p)
	if task.kind != taskRate || task.scale != 9 || task.a != "the item" {
		t.Fatalf("task = %+v", task)
	}
}

func TestRecogniseMatch(t *testing.T) {
	p := prompt.MatchPair("citation one", "citation two")
	task := recognise(p)
	if task.kind != taskMatch || task.a != "citation one" || task.b != "citation two" {
		t.Fatalf("task = %+v", task)
	}
}

func TestRecogniseImpute(t *testing.T) {
	exs := []prompt.Example{{Input: "name is a", Output: "atlanta"}}
	p := prompt.Impute("name is x; phone is 212-1", "city", exs)
	task := recognise(p)
	if task.kind != taskImpute || task.field != "city" {
		t.Fatalf("task = %+v", task)
	}
	if task.record != "name is x; phone is 212-1" {
		t.Fatalf("record = %q", task.record)
	}
	if len(task.examples) != 1 || task.examples[0].output != "atlanta" {
		t.Fatalf("examples = %+v", task.examples)
	}
}

func TestRecogniseFilterCountGroup(t *testing.T) {
	if task := recognise(prompt.FilterItem("it", "cond")); task.kind != taskFilter || task.predicate != "cond" {
		t.Fatalf("filter task = %+v", task)
	}
	if task := recognise(prompt.CountBatch([]string{"a"}, "cond")); task.kind != taskCount || task.predicate != "cond" {
		t.Fatalf("count task = %+v", task)
	}
	task := recognise(prompt.GroupRecords([]string{"rec one", "rec two"}))
	if task.kind != taskGroup || len(task.items) != 2 {
		t.Fatalf("group task = %+v", task)
	}
}

func TestRecogniseVerify(t *testing.T) {
	task := recognise(prompt.Verify("inner question?", "42"))
	if task.kind != taskVerify || task.question != "inner question?" || task.answer != "42" {
		t.Fatalf("task = %+v", task)
	}
}

// TestRecogniseVerifyOfRate pins that a verify prompt quoting a rate
// question is a verify task, not a rate task of the quoted item, and that
// the oracle answers it in a form ParseYesNo reads, at every temperature.
func TestRecogniseVerifyOfRate(t *testing.T) {
	question := prompt.RateItem("Mint chip", "how chocolatey they are", 5)
	p := prompt.Verify(question, "3")
	task := recognise(p)
	if task.kind != taskVerify || task.answer != "3" {
		t.Fatalf("task = %+v", task)
	}
	o := NewNamed("sim-gpt-3.5-turbo")
	for _, temp := range []float64{0, 1} {
		resp, err := o.Complete(context.Background(), llm.Request{Prompt: p, Temperature: temp})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prompt.ParseYesNo(resp.Text); err != nil {
			t.Fatalf("temperature %g: %v", temp, err)
		}
	}
}

func TestRecogniseCategorizeAndDiscover(t *testing.T) {
	task := recognise(prompt.Categorize("thing", []string{"cat a", "cat b"}))
	if task.kind != taskCategorize || task.a != "thing" {
		t.Fatalf("task = %+v", task)
	}
	if !reflect.DeepEqual(task.items, []string{"cat a", "cat b"}) {
		t.Fatalf("categories = %v", task.items)
	}
	task = recognise(prompt.DiscoverCategories([]string{"one"}, 4))
	if task.kind != taskDiscover || task.max != 4 {
		t.Fatalf("task = %+v", task)
	}
}

func TestRecogniseUnknown(t *testing.T) {
	for _, p := range []string{
		"",
		"write me a poem",
		"Sort these things please", // wrong template shape
	} {
		if task := recognise(p); task.kind != taskUnknown {
			t.Errorf("recognise(%q) = %v, want unknown", p, task.kind)
		}
	}
}

func TestCriterionStem(t *testing.T) {
	cases := []struct{ in, want string }{
		{"how chocolatey they are", "chocolat"}, // stem is a prefix matcher; "chocolat" hits every chocolate item
		{"alphabetical order", "alphabetical"},
		{"size", ""}, // too short for a stem
	}
	for _, c := range cases {
		if got := criterionStem(c.in); got != c.want {
			t.Errorf("criterionStem(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSharedPrefix(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"apple", "apricot", 2},
		{"same", "same", 4}, // capped at 4
		{"x", "y", 0},
		{"Mango", "mandible", 3},
	}
	for _, c := range cases {
		if got := sharedPrefix(c.a, c.b); got != c.want {
			t.Errorf("sharedPrefix(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
