package core

import (
	"errors"
	"fmt"
	"reflect"
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

// dupTrain is a restaurants train table in which rows 10–19 carry the ids
// of rows 0–9: ten ids name two different records each. The queries are
// four unseen records and four of the second carriers themselves, whose
// nearest neighbour is therefore a duplicated id.
func dupTrain() (train, queries []dataset.Record, target string) {
	ds := dataset.GenerateRestaurants(30, 4, 11)
	train = append([]dataset.Record(nil), ds.Train...)
	for i := 10; i < 20; i++ {
		train[i] = train[i].Clone()
		train[i].ID = train[i-10].ID
	}
	queries = append(queries, ds.Test...)
	for _, r := range train[10:14] {
		queries = append(queries, r.WithoutField(ds.TargetField))
	}
	return train, queries, ds.TargetField
}

// TestImputeDuplicateTrainIDs pins what a train table with repeated ids
// imputes: for each id the last row carrying it is the one indexed, voted
// with and shown as an example. The values are those of the implementation
// that kept id-keyed maps of targets and texts; reading a neighbour's row
// from the table itself must not move them, with or without a registry
// (whose index may have been built by an earlier, identical table).
func TestImputeDuplicateTrainIDs(t *testing.T) {
	train, queries, target := dupTrain()
	wantKNN := []string{"los angeles", "new york", "new orleans", "los angeles", "new york", "new orleans", "new orleans", "new york"}
	wantHybrid := []string{"chicago", "atlanta", "las vegas", "chicago", "new york", "new orleans", "new orleans", "new york"}
	const wantHybridLLM = 8
	for _, opts := range [][]Option{nil, {WithIndexRegistry(embed.NewRegistry())}} {
		engine := New(sim.NewNamed("sim-gpt-3.5-turbo"), opts...)
		for round := 0; round < 2; round++ { // the second round finds the registry's index
			knn, err := engine.Impute(ctx(), ImputeRequest{Train: train, Queries: queries, TargetField: target, Strategy: ImputeKNN, Neighbors: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(knn.Values, wantKNN) {
				t.Fatalf("knn values (registry %v, round %d) = %q, want %q", opts != nil, round, knn.Values, wantKNN)
			}
			hybrid, err := engine.Impute(ctx(), ImputeRequest{Train: train, Queries: queries, TargetField: target, Strategy: ImputeHybrid, Neighbors: 3, Examples: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hybrid.Values, wantHybrid) || hybrid.LLMCalls != wantHybridLLM {
				t.Fatalf("hybrid (registry %v, round %d) = %q with %d LLM calls, want %q with %d",
					opts != nil, round, hybrid.Values, hybrid.LLMCalls, wantHybrid, wantHybridLLM)
			}
		}
	}
}

// TestImputeNeighborCounts: the neighbour and example counts arrive from
// outside (a job spec), so a negative one is a bad request — it used to
// slice vote[:-3] inside a worker goroutine nothing can recover — and one
// beyond the table, however far, votes over the whole table without
// sizing anything by it (1<<40 used to allocate a heap that large).
func TestImputeNeighborCounts(t *testing.T) {
	ds := dataset.GenerateRestaurants(40, 3, 9)
	n := len(ds.Train)
	engine := New(sim.NewNamed("sim-claude"))
	whole, err := engine.Impute(ctx(), ImputeRequest{Train: ds.Train, Queries: ds.Test, TargetField: ds.TargetField, Strategy: ImputeKNN, Neighbors: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		neighbors, examples int
		bad                 bool
	}{
		{neighbors: -1, bad: true},
		{neighbors: -3, bad: true},
		{examples: -1, bad: true},
		{neighbors: 0},
		{neighbors: n},
		{neighbors: n + 7},
		{neighbors: 1 << 40},
	} {
		for _, strategy := range []ImputeStrategy{ImputeKNN, ImputeHybrid, ImputeLLM} {
			res, err := engine.Impute(ctx(), ImputeRequest{Train: ds.Train, Queries: ds.Test, TargetField: ds.TargetField,
				Strategy: strategy, Neighbors: tc.neighbors, Examples: tc.examples})
			if tc.bad != errors.Is(err, ErrBadRequest) || (!tc.bad && err != nil) {
				t.Fatalf("%s neighbors=%d examples=%d: err = %v, want bad request %v", strategy, tc.neighbors, tc.examples, err, tc.bad)
			}
			if strategy == ImputeKNN && tc.neighbors >= n && !reflect.DeepEqual(res.Values, whole.Values) {
				t.Fatalf("neighbors=%d over %d records: %v, want the whole-table vote %v", tc.neighbors, n, res.Values, whole.Values)
			}
		}
	}
}

// TestPrepareImputeWarmAllocsIndependentOfTrainSize: once a registry holds
// a train table's index, preparing another impute over that table hashes
// it and nothing more — no rendering, no per-record map entries — so the
// allocation count does not grow with the table.
func TestPrepareImputeWarmAllocsIndependentOfTrainSize(t *testing.T) {
	engine := New(sim.NewNamed("sim-gpt-3.5-turbo"), WithIndexRegistry(embed.NewRegistry()))
	allocs := func(n int) float64 {
		ds := dataset.GenerateRestaurants(n, 1, 3)
		req := ImputeRequest{Train: ds.Train, TargetField: ds.TargetField, Strategy: ImputeHybrid, Neighbors: 5, Examples: 2}
		if _, err := engine.PrepareImpute(req); err != nil { // builds the index
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := engine.PrepareImpute(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Equal up to a pooled scratch buffer the embedder's fingerprint probe
	// may or may not find (the race detector empties pools at random);
	// per-record work would show as tens of thousands.
	small, large := allocs(1000), allocs(4000)
	if large > small+4 {
		t.Fatalf("warm PrepareImpute allocates %.0f times over 1000 train records and %.0f over 4000; it should not depend on the table", small, large)
	}
}
