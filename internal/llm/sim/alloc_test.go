package sim

import (
	"context"
	"runtime"
	"slices"
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
// source, per-comparison trigram maps or a wordy answer it does not give.
// Each round starts collected and warm; a collection inside it, or a call
// that finds another P's pool, only adds bytes to that round, so the
// median round is what a call costs, and a cost most rounds show fails.
func TestOracleCompleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	const (
		calls  = 200
		rounds = 5
	)
	limits := map[string]uint64{"filter": 0, "categorize": 96, "impute": 32} // bytes per Complete
	o := NewNamed("sim-gpt-3.5-turbo")
	ctx := context.Background()
	for _, p := range coldFanoutPrompts() {
		req := llm.Request{Prompt: p.prompt}
		per := make([]uint64, rounds)
		for k := range per {
			runtime.GC()
			o.Complete(ctx, req) // warm the pools the collection emptied
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				o.Complete(ctx, req)
			}
			runtime.ReadMemStats(&after)
			per[k] = (after.TotalAlloc - before.TotalAlloc) / calls
		}
		slices.Sort(per)
		got := per[rounds/2]
		t.Logf("%s: %d B per call (rounds %v)", p.name, got, per)
		if got > limits[p.name] {
			t.Errorf("%s: Complete allocates %d B per call, want at most %d", p.name, got, limits[p.name])
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
