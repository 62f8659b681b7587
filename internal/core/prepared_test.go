package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm/sim"
)

// TestImputeZeroShotLLMReadsNoNeighbours: the llm strategy never votes, so
// without few-shot examples it must not embed the training table or a
// single query — and with examples it must, once per query.
func TestImputeZeroShotLLMReadsNoNeighbours(t *testing.T) {
	ds := dataset.GenerateRestaurants(20, 4, 9)
	em := &countingEmbedder{inner: embed.Default()}
	engine := New(sim.NewNamed("sim-claude"), WithEmbedder(em))
	req := ImputeRequest{Train: ds.Train, Queries: ds.Test, TargetField: ds.TargetField, Strategy: ImputeLLM}
	zero, err := engine.Impute(ctx(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := em.calls.Load(); got != 0 {
		t.Fatalf("zero-shot llm impute embedded %d texts, want 0", got)
	}
	if zero.LLMCalls != len(ds.Test) || zero.KNNDecided != 0 {
		t.Fatalf("zero-shot llm impute: %d by LLM, %d by k-NN, want %d and 0", zero.LLMCalls, zero.KNNDecided, len(ds.Test))
	}
	req.Examples = 2
	if _, err := engine.Impute(ctx(), req); err != nil {
		t.Fatal(err)
	}
	if got, want := em.calls.Load(), int64(len(ds.Train)+len(ds.Test)); got != want {
		t.Fatalf("few-shot llm impute embedded %d texts, want the %d training records plus the %d queries", got, len(ds.Train), len(ds.Test))
	}
}

// TestPreparedOperatorsMatchTableOperators: asking a prepared operator one
// item at a time gives exactly the table operator's answers — they are the
// same code — for every per-record operator.
func TestPreparedOperatorsMatchTableOperators(t *testing.T) {
	ds := dataset.GenerateRestaurants(24, 6, 5)
	engine := New(sim.NewNamed("sim-gpt-3.5-turbo"))
	items := make([]string, len(ds.Test))
	for i, r := range ds.Test {
		items[i], _ = r.Get("name")
	}

	freq := FilterRequest{Items: items, Predicate: "the name is pronounceable"}
	filtered, err := engine.Filter(ctx(), freq)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := engine.PrepareFilter(freq)
	if err != nil {
		t.Fatal(err)
	}
	categories := []string{"diner", "bistro", "grill"}
	categorized, err := engine.Categorize(ctx(), CategorizeRequest{Items: items, Categories: categories})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := engine.PrepareCategorize(categories)
	if err != nil {
		t.Fatal(err)
	}
	ireq := ImputeRequest{Train: ds.Train, Queries: ds.Test, TargetField: ds.TargetField, Strategy: ImputeHybrid, Examples: 2}
	imputed, err := engine.Impute(ctx(), ireq)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := engine.PrepareImpute(ireq)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		if a, err := pf.Ask(ctx(), item); err != nil || a.Keep != filtered.Keep[i] {
			t.Fatalf("filter item %d: Ask = %+v (%v), table operator kept %v", i, a, err, filtered.Keep[i])
		}
		if v, err := pc.Ask(ctx(), item); err != nil || v != categorized.Assignments[i] {
			t.Fatalf("categorize item %d: Ask = %q (%v), table operator assigned %q", i, v, err, categorized.Assignments[i])
		}
		if a, err := pi.Ask(ctx(), ds.Test[i]); err != nil || a.Value != imputed.Values[i] {
			t.Fatalf("impute query %d: Ask = %+v (%v), table operator imputed %q", i, a, err, imputed.Values[i])
		}
	}

	left := entitiesOf(ds.Test, "l")
	right := entitiesOf(ds.Test[:3], "r")
	joined, err := engine.Join(ctx(), JoinRequest{Left: left, Right: right, Strategy: JoinNestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := engine.PrepareJoin(right)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []JoinPair
	for _, l := range left {
		a, err := pj.Ask(ctx(), l)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, a.Matches...)
	}
	if len(joined.Matches) == 0 || fmt.Sprint(pairs) != fmt.Sprint(joined.Matches) {
		t.Fatalf("join: per-record matches %v, table operator %v", pairs, joined.Matches)
	}
	if _, err := pj.Ask(ctx(), right[0]); err == nil {
		t.Fatal("a left record sharing an ID with the right side was accepted")
	}
}

// entitiesOf renders records as join entities under prefixed IDs.
func entitiesOf(recs []dataset.Record, prefix string) []Entity {
	out := make([]Entity, len(recs))
	for i, r := range recs {
		name, _ := r.Get("name")
		out[i] = Entity{ID: fmt.Sprintf("%s%02d", prefix, i), Text: name}
	}
	return out
}
