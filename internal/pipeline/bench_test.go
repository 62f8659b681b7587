package pipeline

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/workflow"
)

// benchSpec is a small filter→dedupe→impute chain in the pessimal user
// order, the shape the optimizer rewrites.
func benchSpec() Spec {
	return Spec{Stages: []StageSpec{
		{Name: "entities", Kind: KindResolve, Input: "source",
			Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "cheap", Kind: KindFilter, Field: "type",
			Predicate: "the restaurant serves seafood, steak, or pizza", Selectivity: 0.3},
		{Name: "city", Kind: KindImpute, TargetField: "city",
			Side: "train", Strategy: "hybrid", Neighbors: 3},
	}}
}

func benchTables() map[string][]dataset.Record {
	ds := dataset.GenerateRestaurants(40, 12, 7)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	return map[string][]dataset.Record{"source": source, "train": ds.Train}
}

func benchRun(b *testing.B, spec Spec, cfg ExecConfig) {
	b.Helper()
	p, err := Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	tables := benchTables()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(context.Background(), cfg, tables); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineNaive is the seed behaviour: user stage order, one
// isolated engine per stage, whole-table handoff.
func BenchmarkPipelineNaive(b *testing.B) {
	benchRun(b, benchSpec(), ExecConfig{
		Model: sim.NewNamed("sim-gpt-3.5-turbo"), Parallelism: 16, Isolated: true, Materialized: true,
	})
}

// BenchmarkPipelineOptimized runs the optimizer's rewritten plan on one
// shared engine with batching and record streaming (the default).
func BenchmarkPipelineOptimized(b *testing.B) {
	spec, _, err := Optimize(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, spec, ExecConfig{
		Model: sim.NewNamed("sim-gpt-3.5-turbo"), Parallelism: 16, Batch: 8,
	})
}

// BenchmarkPipelineOptimizedMaterialized is the same plan with streaming
// disabled — the wall-clock delta against BenchmarkPipelineOptimized is
// what record-level streaming buys (or costs) on this workload.
func BenchmarkPipelineOptimizedMaterialized(b *testing.B) {
	spec, _, err := Optimize(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, spec, ExecConfig{
		Model: sim.NewNamed("sim-gpt-3.5-turbo"), Parallelism: 16, Batch: 8, Materialized: true,
	})
}

// BenchmarkPipelineAdaptive runs the optimized plan under the adaptive
// runtime: self-tuned chunk widths and mid-run filter re-ordering. The
// delta against BenchmarkPipelineOptimized is the adaptive machinery's
// overhead (or win) when the static plan was already good.
func BenchmarkPipelineAdaptive(b *testing.B) {
	spec, _, err := Optimize(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, spec, ExecConfig{
		Model: sim.NewNamed("sim-gpt-3.5-turbo"), Parallelism: 16, Batch: 8, Adaptive: true,
	})
}

// BenchmarkPipelineOptimize measures the optimizer itself (pure plan
// rewriting, no LLM work).
func BenchmarkPipelineOptimize(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, _, err := Optimize(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchCountersPinned pins the execution-layer counters of one cold
// run of the benchmark workload (restaurants 12 source / 40 train) under
// every executor configuration benchmarked above, plus a serial standing
// query fed half the source mid-run. The Parallelism 16 rows issue their
// asks concurrently, so how the batcher's linger packs envelopes (calls,
// tokens, batches) and how free serves split between cache hits and
// coalesced followers depend on the schedule; what is exact on them is
// the distinct unit tasks answered (CacheSize) and the asks served free
// (CacheHits + Coalesced). The serial row is exact throughout. A diff
// here means the engine changed what a run costs — rebase the numbers
// only with an explanation.
func TestBenchCountersPinned(t *testing.T) {
	optimized, _, err := Optimize(benchSpec())
	if err != nil {
		t.Fatal(err)
	}
	type counters struct{ calls, tokens, hits, coalesced, batches, soloRetries int }
	cases := []struct {
		name      string
		spec      Spec
		cfg       ExecConfig
		feedHalf  bool
		cacheSize int
		free      int
		serial    *counters // the full row, where execution is serial
	}{
		// An isolated run builds a private engine per stage and must leave
		// the shared layer it was handed untouched.
		{name: "naive", spec: benchSpec(),
			cfg: ExecConfig{Parallelism: 16, Isolated: true, Materialized: true}},
		{name: "optimized-materialized", spec: optimized,
			cfg:       ExecConfig{Parallelism: 16, Batch: 8, Materialized: true},
			cacheSize: 30, free: 3},
		{name: "optimized-streaming", spec: optimized,
			cfg:       ExecConfig{Parallelism: 16, Batch: 8},
			cacheSize: 30, free: 3},
		{name: "adaptive", spec: optimized,
			cfg:       ExecConfig{Parallelism: 16, Batch: 8, Adaptive: true},
			cacheSize: 30, free: 3},
		{name: "standing-query", spec: optimized,
			cfg:       ExecConfig{Parallelism: 1},
			feedHalf:  true,
			cacheSize: 30, free: 3,
			serial: &counters{calls: 30, tokens: 2520, hits: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			counting := llm.NewCounting(sim.NewNamed("sim-gpt-3.5-turbo"))
			layer := workflow.NewExecLayer()
			cfg, tables := tc.cfg, benchTables()
			cfg.Model, cfg.Exec = counting, layer
			if tc.feedHalf {
				source := tables["source"]
				half := len(source) / 2
				tables["source"] = source[:half]
				cfg.Feed = feedRecords(source[half:])
			}
			if _, err := p.Run(context.Background(), cfg, tables); err != nil {
				t.Fatal(err)
			}
			st := layer.Stats()
			if st.CacheSize != tc.cacheSize || st.CacheHits+st.Coalesced != tc.free {
				t.Errorf("{cache size %d, free serves %d} differs from pinned {%d, %d}",
					st.CacheSize, st.CacheHits+st.Coalesced, tc.cacheSize, tc.free)
			}
			if tc.serial == nil {
				return
			}
			total := counting.Total()
			got := counters{total.Calls, total.Total(), st.CacheHits, st.Coalesced, st.Batches, st.SoloRetries}
			if got != *tc.serial {
				t.Errorf("serial counters %+v differ from pinned %+v", got, *tc.serial)
			}
		})
	}
}
