package sim

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/prompt"
)

// coldFanoutPrompts returns one filter, one categorize and one impute
// prompt shaped like the benchmark's cold-fanout stages: a restaurant name
// against a casual-place predicate, the same name against six cuisine
// categories, and a restaurant record's city with no examples.
func coldFanoutPrompts() []pinPrompt {
	rest := dataset.GenerateRestaurants(8, 4, 21)
	r := rest.Test[0]
	name, _ := r.Get("name")
	name += " no. 17-3"
	return []pinPrompt{
		{"filter", prompt.FilterItem(name, "the restaurant sounds like a casual neighbourhood place")},
		{"categorize", prompt.Categorize(name, []string{"diner", "cafe", "grill", "bistro", "kitchen", "house"})},
		{"impute", prompt.Impute(r.With("name", name).WithoutField(rest.TargetField).String(), rest.TargetField, nil)},
	}
}

// TestOracleCompleteAllocs pins what one upstream call of cold-fanout's
// shape allocates: the answer and its bookkeeping, not a fresh noise
// source or per-comparison trigram maps.
func TestOracleCompleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	const (
		limit = 1024 // bytes per Complete
		calls = 200
	)
	o := NewNamed("sim-gpt-3.5-turbo")
	ctx := context.Background()
	for _, p := range coldFanoutPrompts() {
		req := llm.Request{Prompt: p.prompt}
		o.Complete(ctx, req) // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			o.Complete(ctx, req)
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("%s: %d B per call", p.name, got)
		if got > limit {
			t.Errorf("%s: Complete allocates %d B per call, want at most %d", p.name, got, limit)
		}
	}
}

// BenchmarkOracleComplete times one Complete per template of the pinned
// corpus at temperature 0.
func BenchmarkOracleComplete(b *testing.B) {
	o := NewNamed("sim-gpt-3.5-turbo")
	ctx := context.Background()
	for _, p := range pinCorpus() {
		req := llm.Request{Prompt: p.prompt}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := o.Complete(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
