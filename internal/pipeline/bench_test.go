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

// BenchmarkFanOutWarm runs warm-replay's job without the server: six
// stages that each read the same 256 restaurants (three filters, a
// categorize, a rating sort and a per-item count) on an execution layer a
// first run has warmed, so an op is the pipeline over cache hits alone —
// the feeder's hand-off to every stage, the windows answering inline and
// the barriers draining. It fails if a warm run asks upstream.
//
//	go test -run '^$' -bench FanOutWarm -benchmem -cpuprofile cpu.out ./internal/pipeline/
func BenchmarkFanOutWarm(b *testing.B) {
	casual := "the restaurant sounds like a casual neighbourhood place"
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "casual", Kind: KindFilter, Input: "source", Field: "name", Predicate: casual},
		{Name: "seafood", Kind: KindFilter, Input: "source", Field: "type", Predicate: "the restaurant serves seafood, steak, or pizza"},
		{Name: "street", Kind: KindFilter, Input: "source", Field: "addr", Predicate: "the address is on a numbered street or avenue"},
		{Name: "kind", Kind: KindCategorize, Input: "source", Field: "name", Categories: []string{"diner", "cafe", "grill", "bistro", "kitchen", "house"}},
		{Name: "fancy", Kind: KindSort, Input: "source", Criterion: "how upscale the restaurant is", Strategy: "rating"},
		{Name: "share", Kind: KindCount, Input: "source", Field: "name", Predicate: casual},
	}})
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.GenerateRestaurants(0, 256, 1)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	tables := map[string][]dataset.Record{"source": source}
	counting := llm.NewCounting(sim.NewNamed("sim-gpt-3.5-turbo"))
	cfg := ExecConfig{Model: counting, Exec: workflow.NewExecLayer()}
	run := func() {
		if _, err := p.Run(context.Background(), cfg, tables); err != nil {
			b.Fatal(err)
		}
	}
	run() // the warm-up: every unit task's answer lands in the cache
	calls := counting.Total().Calls
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
	if got := counting.Total().Calls; got != calls {
		b.Fatalf("warm runs made %d upstream calls", got-calls)
	}
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
// the configuration BenchmarkPipelineOptimized runs, plus a serial
// standing query fed half the source mid-run. Envelopes are cut by
// sequence block, so calls, tokens, envelopes and solo retries are exact
// on every row, as are the distinct unit tasks answered (CacheSize) and
// the asks served free (CacheHits + Coalesced). How the free serves split
// between cache hits and coalesced followers depends on the schedule
// where asks run concurrently, so the split is pinned on the serial row
// only. A diff here means the engine changed what a run costs — rebase
// the numbers only with an explanation.
func TestBenchCountersPinned(t *testing.T) {
	optimized, _, err := Optimize(benchSpec())
	if err != nil {
		t.Fatal(err)
	}
	type counters struct{ calls, tokens, batches, soloRetries int }
	cases := []struct {
		name      string
		spec      Spec
		cfg       ExecConfig
		feedHalf  bool
		cacheSize int
		free      int
		want      counters
		hits      int // pinned when >= 0: the run is serial
	}{
		{name: "optimized-streaming", spec: optimized,
			cfg:       ExecConfig{Parallelism: 16, Batch: 8},
			cacheSize: 30, free: 3, hits: -1,
			want: counters{calls: 18, tokens: 2835, batches: 3}},
		{name: "standing-query", spec: optimized,
			cfg:       ExecConfig{Parallelism: 1},
			feedHalf:  true,
			cacheSize: 30, free: 3, hits: 3,
			want: counters{calls: 30, tokens: 2520}},
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
			total := counting.Total()
			if got := (counters{total.Calls, total.Total(), st.Batches, st.SoloRetries}); got != tc.want {
				t.Errorf("counters %+v differ from pinned %+v", got, tc.want)
			}
			if tc.hits >= 0 && st.CacheHits != tc.hits {
				t.Errorf("cache hits %d differ from pinned %d", st.CacheHits, tc.hits)
			}
		})
	}
}
