package sim

import (
	"context"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// TestEnvelopeAnswersMatchStandalone is the contract the execution
// layer's batching relies on: at temperature 0 every task embedded in a
// multi-task envelope is answered exactly as its standalone prompt would
// be, because the oracle derives each sub-answer's noise from the
// sub-prompt alone.
func TestEnvelopeAnswersMatchStandalone(t *testing.T) {
	o := New("sim-batch-test", func() Config {
		cfg := DefaultConfig()
		cfg.BatchSkipPerPair = 0 // no skips: every section must appear
		return cfg
	}())
	ctx := context.Background()

	prompts := []string{
		prompt.FilterItem("triple chocolate fudge", "the flavor contains chocolate"),
		prompt.FilterItem("lemon sorbet", "the flavor contains chocolate"),
		prompt.Categorize("rocky road", []string{"chocolate", "fruit", "other"}),
		prompt.Impute("name is Fudge Palace; city is Berkeley", "cuisine", nil),
	}
	standalone := make([]string, len(prompts))
	for i, p := range prompts {
		resp, err := o.Complete(ctx, llm.Request{Prompt: p})
		if err != nil {
			t.Fatal(err)
		}
		standalone[i] = resp.Text
	}

	resp, err := o.Complete(ctx, llm.Request{Prompt: prompt.TaskBatch(prompts)})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := prompt.ParseTaskBatch(resp.Text, len(prompts))
	if err != nil {
		t.Fatalf("split envelope response: %v\n%s", err, resp.Text)
	}
	for i := range prompts {
		got, ok := answers[i]
		if !ok {
			t.Fatalf("task %d missing from envelope response:\n%s", i, resp.Text)
		}
		if got != standalone[i] {
			t.Errorf("task %d batched answer %q != standalone %q", i, got, standalone[i])
		}
	}
}

// TestEnvelopeSkipsExerciseRetryPath: with an aggressive skip rate the
// oracle drops sections, which is exactly what the envelope's solo-retry
// path exists for.
func TestEnvelopeSkipsSections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSkipPerPair = 0.5
	o := New("sim-skip-test", cfg)
	ctx := context.Background()
	prompts := make([]string, 8)
	for i := range prompts {
		prompts[i] = prompt.FilterItem("flavor", "anything")
	}
	resp, err := o.Complete(ctx, llm.Request{Prompt: prompt.TaskBatch(prompts)})
	if err != nil {
		t.Fatal(err)
	}
	answers, _ := prompt.ParseTaskBatch(resp.Text, len(prompts))
	if len(answers) == len(prompts) {
		t.Fatalf("skip rate 0.5 over 8 tasks answered all %d — skip model inert", len(answers))
	}
}
