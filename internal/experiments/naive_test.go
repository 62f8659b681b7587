package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/token"
)

// TestRunNaiveMatchesPipeline runs a spec with two branches off source, a
// join whose side input is an earlier stage, and a scalar stage through
// the naive chain and as one pipeline: tables, scalars and per-stage
// record counts and calls must agree, and the merged report must sum to
// the run total.
func TestRunNaiveMatchesPipeline(t *testing.T) {
	names := dataset.FlavorNames()
	source := make([]dataset.Record, 8)
	for i := range source {
		source[i] = dataset.Record{ID: fmt.Sprintf("flavor-%02d", i),
			Fields: []dataset.Field{{Name: "name", Value: names[i]}}}
	}
	tables := map[string][]dataset.Record{"source": source}
	spec := pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "pool", Kind: pipeline.KindFilter, Field: "name", Predicate: "poolpred", Input: "source"},
		{Name: "feed", Kind: pipeline.KindFilter, Field: "name", Predicate: "feedpred", Input: "source"},
		{Name: "match", Kind: pipeline.KindJoin, Field: "name", Side: "pool", Strategy: "nested-loop"},
		{Name: "n", Kind: pipeline.KindCount, Field: "name", Predicate: "countpred", Strategy: "per-item", Input: "feed"},
	}}
	// The pool keeps every fourth flavor and the feed the odd ones, so the
	// join's two sides have disjoint IDs; every other question is a yes.
	model := func() *llm.CountingModel {
		return llm.NewCounting(llm.Func{ModelName: "naive-test",
			Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
				text := "Yes"
				for i, name := range names[:len(source)] {
					if !strings.Contains(req.Prompt, name) {
						continue
					}
					if strings.Contains(req.Prompt, "poolpred") && i%4 != 0 ||
						strings.Contains(req.Prompt, "feedpred") && i%2 == 0 {
						text = "No"
					}
					break
				}
				return llm.Response{Text: text, Model: "naive-test",
					Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1}}, nil
			}})
	}

	naiveModel, planModel := model(), model()
	naive, err := RunNaive(ctx(), spec, pipeline.ExecConfig{Model: naiveModel, Parallelism: 4}, tables)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runPlan(ctx(), spec, pipeline.ExecConfig{Model: planModel, Parallelism: 4}, tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Tables["match"]) == 0 {
		t.Fatal("the join matched nothing; the spec no longer exercises a side stage")
	}
	if !reflect.DeepEqual(naive.Tables, plan.Tables) || !reflect.DeepEqual(naive.Scalars, plan.Scalars) {
		t.Fatalf("naive chain diverges from the pipeline:\nnaive %v %v\nplan  %v %v",
			naive.Tables, naive.Scalars, plan.Tables, plan.Scalars)
	}
	if len(naive.Stages) != len(spec.Stages) {
		t.Fatalf("naive report has %d stages, want %d", len(naive.Stages), len(spec.Stages))
	}
	for i, got := range naive.Stages {
		want := plan.Stages[i]
		if got.Name != want.Name || got.In != want.In || got.Out != want.Out || got.Usage != want.Usage {
			t.Errorf("stage %d: naive {%s in %d out %d %+v}, pipeline {%s in %d out %d %+v}",
				i, got.Name, got.In, got.Out, got.Usage, want.Name, want.In, want.Out, want.Usage)
		}
	}
	if sum := sumStageUsage(naive.Stages); sum != naive.Usage || sum.Calls != naiveModel.Total().Calls {
		t.Fatalf("naive report sums to %+v, run total %+v, upstream %d calls", sum, naive.Usage, naiveModel.Total().Calls)
	}
}
