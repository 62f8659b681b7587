package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm/sim"
)

// countingEmbedder counts Embed calls around the default embedder.
type countingEmbedder struct {
	inner embed.Embedder
	calls atomic.Int64
}

func (c *countingEmbedder) Embed(text string) []float64 {
	c.calls.Add(1)
	return c.inner.Embed(text)
}

func (c *countingEmbedder) Dim() int { return c.inner.Dim() }

// TestIndexRegistrySharedAcrossOperators: with a registry attached, two
// different operators indexing the same corpus — a blocked dedupe over the
// records, then a join whose right side is those same records — embed the
// corpus exactly once.
func TestIndexRegistrySharedAcrossOperators(t *testing.T) {
	em := &countingEmbedder{inner: embed.Default()}
	engine := New(sim.NewNamed("sim-gpt-3.5-turbo"),
		WithEmbedder(em), WithIndexRegistry(embed.NewRegistry()))

	corpus := make([]Entity, 12)
	for i := range corpus {
		corpus[i] = Entity{ID: fmt.Sprint(i), Text: fmt.Sprintf("record number %d with shared scaffolding", i)}
	}
	if _, err := engine.Dedupe(ctx(), DedupeRequest{Records: corpus, Strategy: DedupeBlockedPairwise}); err != nil {
		t.Fatal(err)
	}
	afterDedupe := em.calls.Load()
	if afterDedupe < int64(len(corpus)) {
		t.Fatalf("dedupe embedded %d texts, want at least the corpus", afterDedupe)
	}

	left := []Entity{{ID: "l-0", Text: "record number 3 with shared scaffolding"}}
	if _, err := engine.Join(ctx(), JoinRequest{Left: left, Right: corpus, Strategy: JoinTransitive}); err != nil {
		t.Fatal(err)
	}
	// The join may embed its left-side queries plus the registry's one
	// fingerprint probe, but must not re-embed the right-side corpus the
	// dedupe already indexed.
	if got := em.calls.Load(); got > afterDedupe+int64(len(left))+1 {
		t.Fatalf("join re-embedded the corpus: %d calls after dedupe's %d", got, afterDedupe)
	}

	// Without a registry, the same second operator pays the corpus again.
	em2 := &countingEmbedder{inner: embed.Default()}
	bare := New(sim.NewNamed("sim-gpt-3.5-turbo"), WithEmbedder(em2))
	if _, err := bare.Dedupe(ctx(), DedupeRequest{Records: corpus, Strategy: DedupeBlockedPairwise}); err != nil {
		t.Fatal(err)
	}
	base2 := em2.calls.Load()
	if _, err := bare.Join(ctx(), JoinRequest{Left: left, Right: corpus, Strategy: JoinTransitive}); err != nil {
		t.Fatal(err)
	}
	if got := em2.calls.Load(); got <= base2+int64(len(left)) {
		t.Fatalf("baseline unexpectedly reused the corpus (%d calls after %d); registry test is vacuous", got, base2)
	}
}

// TestIndexRegistryPlannerProfilingReuse: the planner profiles several
// impute strategies over one training set; with a registry the training
// corpus is embedded once across all candidate runs instead of once per
// candidate.
func TestIndexRegistryPlannerProfilingReuse(t *testing.T) {
	ds := dataset.GenerateRestaurants(20, 4, 9)
	em := &countingEmbedder{inner: embed.Default()}
	reg := embed.NewRegistry()
	engine := New(sim.NewNamed("sim-claude"), WithEmbedder(em), WithIndexRegistry(reg))

	// Two few-shot examples, so the llm candidate reads neighbours too (a
	// zero-shot llm run never touches the index).
	_, err := engine.PlanImpute(ctx(), ds.Train, ds.TargetField,
		[]ImputeStrategy{ImputeKNN, ImputeLLM, ImputeHybrid}, 5, 2, 0.8, 0, len(ds.Test))
	if err != nil {
		t.Fatal(err)
	}
	builds, hits := reg.Stats()
	if builds != 1 {
		t.Fatalf("planner profiling built %d indexes over one training set, want 1", builds)
	}
	if hits < 2 {
		t.Fatalf("later candidates should reuse the index: hits = %d", hits)
	}
}
