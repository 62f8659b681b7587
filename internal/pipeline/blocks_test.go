package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/workflow"
)

// TestBatchedRunsAreDeterministic runs the optimized benchmark plan at
// Batch 8 fifty times per row, streaming and materialized, at Parallelism
// 1, 4 and 16, over an upstream with 2 ms of latency and on a fresh layer
// each time. Envelopes are cut by sequence block, not by arrival time, so
// every row has exactly one (calls, tokens, envelopes, solo retries)
// outcome, and every run's tables and scalars are byte-identical to the
// unbatched run's.
func TestBatchedRunsAreDeterministic(t *testing.T) {
	runs := 50
	if testing.Short() {
		runs = 5
	}
	spec, _, err := Optimize(benchSpec())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct{ calls, tokens, batches, soloRetries int }
	run := func(cfg ExecConfig) (outcome, *Result) {
		t.Helper()
		counting := llm.NewCounting(llm.WithLatency(sim.NewNamed("sim-gpt-3.5-turbo"), 2*time.Millisecond))
		layer := workflow.NewExecLayer()
		cfg.Model, cfg.Exec = counting, layer
		res, err := p.Run(context.Background(), cfg, benchTables())
		if err != nil {
			t.Fatal(err)
		}
		total, st := counting.Total(), layer.Stats()
		return outcome{total.Calls, total.Total(), st.Batches, st.SoloRetries}, res
	}
	_, want := run(ExecConfig{Parallelism: 4})
	for _, par := range []int{1, 4, 16} {
		for _, materialized := range []bool{false, true} {
			t.Run(fmt.Sprintf("p%d-materialized-%v", par, materialized), func(t *testing.T) {
				t.Parallel()
				seen := map[outcome]int{}
				for range runs {
					got, res := run(ExecConfig{Parallelism: par, Batch: 8, Materialized: materialized})
					seen[got]++
					if !reflect.DeepEqual(res.Tables, want.Tables) || !reflect.DeepEqual(res.Scalars, want.Scalars) {
						t.Fatal("batched run's tables or scalars differ from the unbatched run's")
					}
				}
				if len(seen) != 1 {
					t.Fatalf("%d runs gave %d outcomes, want 1: %+v", runs, len(seen), seen)
				}
				for got := range seen {
					if got.batches == 0 {
						t.Fatalf("outcome %+v packed no envelope", got)
					}
				}
			})
		}
	}
}
