package declprompt

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// TestBatchedStrategiesMatchUnbatched: at temperature 0, enabling unit
// task batching must not change any operator result — the envelope is
// split back into the exact per-task answers, and tasks the model skips
// fall back to their standalone prompt.
func TestBatchedStrategiesMatchUnbatched(t *testing.T) {
	ctx := context.Background()
	items := dataset.FlavorNames()
	imp := dataset.GenerateRestaurants(80, 30, 11)

	run := func(opts ...Option) (FilterResult, CategorizeResult, ImputeResult) {
		t.Helper()
		engine := NewEngine(NewSimModel("sim-gpt-3.5-turbo"), append([]Option{WithParallelism(8)}, opts...)...)
		fr, err := engine.Filter(ctx, FilterRequest{
			Items:     items,
			Predicate: "the flavor contains chocolate",
			Strategy:  FilterPerItem,
		})
		if err != nil {
			t.Fatal(err)
		}
		cr, err := engine.Categorize(ctx, CategorizeRequest{
			Items:      items,
			Categories: []string{"chocolate", "fruit", "nut", "other"},
			Strategy:   CategorizeDirect,
		})
		if err != nil {
			t.Fatal(err)
		}
		ir, err := engine.Impute(ctx, ImputeRequest{
			Train:       imp.Train,
			Queries:     imp.Test,
			TargetField: imp.TargetField,
			Strategy:    ImputeLLM,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fr, cr, ir
	}

	plainF, plainC, plainI := run()
	batchF, batchC, batchI := run(WithBatching(5))

	if !reflect.DeepEqual(plainF.Keep, batchF.Keep) {
		t.Errorf("batched filter decisions diverge:\nplain  %v\nbatched %v", plainF.Keep, batchF.Keep)
	}
	if !reflect.DeepEqual(plainC.Assignments, batchC.Assignments) {
		t.Errorf("batched categorize assignments diverge:\nplain  %v\nbatched %v", plainC.Assignments, batchC.Assignments)
	}
	if !reflect.DeepEqual(plainI.Values, batchI.Values) {
		t.Errorf("batched impute values diverge:\nplain  %v\nbatched %v", plainI.Values, batchI.Values)
	}
	// Batching must also pay off: fewer upstream calls than one per task.
	if batchF.Usage.Calls >= plainF.Usage.Calls {
		t.Errorf("batched filter calls = %d, want < %d", batchF.Usage.Calls, plainF.Usage.Calls)
	}
}

// TestBatchedFilterMatchesUnbatchedWithSharedLayer exercises the full
// stack together: shared cache + coalescer, and the envelopes its group
// form sends below.
func TestBatchedFilterMatchesUnbatchedWithSharedLayer(t *testing.T) {
	ctx := context.Background()
	items := dataset.FlavorNames()
	req := FilterRequest{Items: items, Predicate: "the flavor contains fruit", Strategy: FilterPerItem}

	plainEngine := NewEngine(NewSimModel("sim-gpt-3.5-turbo"))
	plain, err := plainEngine.Filter(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	layer := NewExecLayer()
	for round := 0; round < 2; round++ {
		engine := NewEngine(NewSimModel("sim-gpt-3.5-turbo"),
			WithExecutionLayer(layer), WithBatching(6))
		got, err := engine.Filter(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Keep, got.Keep) {
			t.Fatalf("round %d: layered decisions diverge from plain", round)
		}
	}
	if st := layer.Stats(); st.CacheHits == 0 {
		t.Fatalf("second round should be served by the shared cache; stats %+v", st)
	}
}
